package delaunay

import (
	"math"
	"sync/atomic"

	"repro/internal/geom"
)

// The persistent point-location grid behind every MeshView of one Live.
//
// Final triangles are final forever (view.go), and their ids are assigned
// in log order at creation, so a build's final set only ever grows, by
// appending ids larger than every id already in it. The grid exploits
// both: its geometry is fixed once per build, and each publication adds
// only the finals committed since the previous one, appending each id to
// the cells it overlaps. Every cell therefore lists ids in ascending
// order, and the final set of a view with a triangle-log prefix of length
// L is exactly the listed ids below L — the grid is shared by all views
// and each view filters by its own prefix length. Publication costs
// O(delta) and allocates only when a spill slab runs out.
//
// Concurrency: one writer (the publisher) and any number of readers. An
// entry is written once, before the cell's count is published by an
// atomic store, and never rewritten; a spill array is replaced only by a
// copy that already holds every published entry. A reader that loads the
// count and then the spill pointer therefore sees every entry below the
// count it loaded. Rollback never reaches the grid: only committed
// rounds are published.

// gridCells caps the location grid's side, bounding its cells at 40 MB
// (1024² cells of 32 bytes plus a spill pointer) however large the input.
const gridCells = 1024

// cellInline is how many ids a cell holds inline: 7 and the count fill
// 32 bytes. At the completed build's resolution a cell lists ~6.7 ids on
// average, and a third of the cells (uniform input) to a half (jittered
// lattice) spill. Cells of 64 bytes that rarely spill made the completed
// view's Locate ~10% slower: the grid then outgrew a core's 2 MB L2 next
// to the triangle log it probes.
const cellInline = 7

// gridCell lists the ids of the final triangles overlapping one cell, in
// ascending order: ids[:n] inline, the rest in the cell's spill array
// (locGrid.spills, kept apart so a cell stays 32 bytes).
type gridCell struct {
	n   atomic.Int32
	ids [cellInline]int32
}

// locate returns the first id in the cell below lim whose triangle
// contains q. The count is loaded before the spill pointer.
//
//ridt:noalloc
func (c *gridCell) locate(v *MeshView, spill *atomic.Pointer[[]int32], lim int32, q geom.Point) (int32, bool) {
	n := int(c.n.Load())
	for _, id := range c.ids[:min(n, cellInline)] {
		if id >= lim {
			return NoTri, false
		}
		if v.triContains(id, q) {
			return id, true
		}
	}
	if n <= cellInline {
		return NoTri, false
	}
	for _, id := range (*spill.Load())[:n-cellInline] {
		if id >= lim {
			return NoTri, false
		}
		if v.triContains(id, q) {
			return id, true
		}
	}
	return NoTri, false
}

// locGrid bins the input bounding box into side×side cells (the bounding
// corners sit ~50 box-widths out and would dilute any grid that included
// them). Each final triangle is listed in every cell its bounding box
// overlaps, clamped into the grid the same way queries are, so a
// triangle containing q is always listed in q's cell. Triangles spanning
// more than 2·side cells — the handful of hull triangles reaching the
// far-away bounding corners — go to the wide cell, the last one, scanned
// on every query.
type locGrid struct {
	pts        []geom.Point
	ox, oy     float64
	invW, invH float64 // cells per unit in x / y
	side       int32
	cells      []gridCell                // side×side cells, then the wide cell
	spills     []atomic.Pointer[[]int32] // per cell: ids past cellInline; len is the capacity

	// The publisher carves spill arrays and their slice headers from
	// these slabs, so spilling allocates once per slab, not per cell. A
	// carved region is never reused: a reader may still hold it.
	slab []int32
	hdrs [][]int32
}

// Slab sizes, in ids and in slice headers.
const (
	spillSlab = 1 << 12
	hdrSlab   = 1 << 8
)

// newLocGrid sizes the grid for the completed build: 2n+1 final
// triangles, so the side is ⌊√(2n+1)⌋+1 (capped at gridCells), one cell
// per final triangle.
func newLocGrid(pts []geom.Point, n int) *locGrid {
	dom := pts[:n]
	if n == 0 {
		dom = pts
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range dom {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	side := int(math.Sqrt(float64(2*n+1))) + 1
	if side > gridCells {
		side = gridCells
	}
	return &locGrid{
		pts:    pts,
		ox:     minX,
		oy:     minY,
		invW:   float64(side) / w,
		invH:   float64(side) / h,
		side:   int32(side),
		cells:  make([]gridCell, side*side+1),
		spills: make([]atomic.Pointer[[]int32], side*side+1),
	}
}

// cellXY maps a coordinate into its (clamped) grid cell.
//
//ridt:noalloc
func (g *locGrid) cellXY(x, y float64) (cx, cy int32) {
	cx = int32((x - g.ox) * g.invW)
	cy = int32((y - g.oy) * g.invH)
	if cx < 0 {
		cx = 0
	} else if cx >= g.side {
		cx = g.side - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.side {
		cy = g.side - 1
	}
	return
}

// add lists final triangle id (corners tv) in every cell it overlaps.
// Publisher only; ids must arrive in ascending order.
func (g *locGrid) add(id int32, tv [3]int32) {
	a, b, c := g.pts[tv[0]], g.pts[tv[1]], g.pts[tv[2]]
	cx0, cy0 := g.cellXY(math.Min(a.X, math.Min(b.X, c.X)), math.Min(a.Y, math.Min(b.Y, c.Y)))
	cx1, cy1 := g.cellXY(math.Max(a.X, math.Max(b.X, c.X)), math.Max(a.Y, math.Max(b.Y, c.Y)))
	if (cx1-cx0+1)*(cy1-cy0+1) > 2*g.side {
		g.addTo(len(g.cells)-1, id)
		return
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			g.addTo(int(cy*g.side+cx), id)
		}
	}
}

// addTo appends id to cell i, doubling the cell's spill array when it is
// full. Publisher only.
func (g *locGrid) addTo(i int, id int32) {
	c, spill := &g.cells[i], &g.spills[i]
	n := c.n.Load()
	if n < cellInline {
		c.ids[n] = id
	} else {
		k := int(n) - cellInline
		sp := spill.Load()
		if sp == nil || k == len(*sp) {
			sp = g.carve(sp, 2*k+cellInline)
			spill.Store(sp)
		}
		(*sp)[k] = id
	}
	c.n.Store(n + 1)
}

// carve returns a header for a new spill array of m ids that starts with
// old's ids, both taken from the slabs.
func (g *locGrid) carve(old *[]int32, m int) *[]int32 {
	if len(g.slab) < m {
		g.slab = make([]int32, max(spillSlab, m))
	}
	arr := g.slab[:m:m]
	g.slab = g.slab[m:]
	if old != nil {
		copy(arr, *old)
	}
	if len(g.hdrs) == 0 {
		g.hdrs = make([][]int32, hdrSlab)
	}
	h := &g.hdrs[0]
	g.hdrs = g.hdrs[1:]
	*h = arr
	return h
}

// locate returns a listed triangle below lim containing q.
//
//ridt:noalloc
func (g *locGrid) locate(v *MeshView, lim int32, q geom.Point) (int32, bool) {
	cx, cy := g.cellXY(q.X, q.Y)
	c := cy*g.side + cx
	if id, ok := g.cells[c].locate(v, &g.spills[c], lim, q); ok {
		return id, true
	}
	w := len(g.cells) - 1
	return g.cells[w].locate(v, &g.spills[w], lim, q)
}
