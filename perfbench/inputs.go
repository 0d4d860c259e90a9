package main

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/rng"
)

// latticeJitter is the lattice workload's jitter as a fraction of one grid
// cell: small enough that neighbouring quads are cocircular to within a
// few ulps, so InCircle leaves its float filter for the exact path.
const latticeJitter = 1e-13

// lpInstance is one linear program: constraints plus objective direction.
type lpInstance struct {
	cons   []lp.Constraint
	cx, cy float64
}

// inputs is everything one run hands to the program, generated from the
// workload seed alone.
type inputs struct {
	dt    []geom.Point   // Delaunay builds
	serve []geom.Point   // the serve build and restores
	cp    [][]geom.Point // closest-pair instances
	seb   [][]geom.Point // smallest-enclosing-disk instances
	lp    []lpInstance   // 2D linear programs
}

// points draws n points of the workload's family from r, shuffles them
// and removes exact duplicates: the input contract every entry point
// assumes. GridJitter returns points in grid order, so the shuffle is
// what makes the insertion order random.
func points(workload string, r *rng.RNG, n int) []geom.Point {
	var pts []geom.Point
	switch workload {
	case "uniform":
		pts = geom.UniformDisk(r, n)
	case "lattice":
		pts = geom.GridJitter(r, n, latticeJitter)
	default:
		panic("unknown workload " + workload)
	}
	rng.ShuffleSlice(r, pts)
	return geom.Dedup(pts)
}

// sizes gives each workload's Delaunay and serve build sizes. Lattice
// builds cost about 2.5 times as much per point (the exact predicates),
// so they get half the points. The serve build is twice the Delaunay
// size: at that length its latency tail is set by the build's own phases
// more than by the host.
var sizes = map[string]struct{ dt, serve int }{
	"uniform": {1 << 15, 1 << 16},
	"lattice": {1 << 14, 1 << 15},
}

func checkWorkload(w string) error {
	if _, ok := sizes[w]; !ok {
		return fmt.Errorf("unknown workload %q (want uniform or lattice)", w)
	}
	return nil
}

// generate builds the run's inputs. Each family gets its own split of
// the seed's stream, so changing one family's size leaves the others'
// points unchanged. Linear programs are the same family in both
// workloads: tangent constraints, the Seidel stress input.
func generate(cfg config) *inputs {
	root := rng.New(cfg.seed)
	rDT, rServe, rCP, rSEB, rLP := root.Split(), root.Split(), root.Split(), root.Split(), root.Split()
	in := &inputs{
		dt:    points(cfg.workload, rDT, cfg.dtN),
		serve: points(cfg.workload, rServe, cfg.serveN),
	}
	for k := 0; k < cfg.t2K; k++ {
		in.cp = append(in.cp, points(cfg.workload, rCP, cfg.cpN))
		in.seb = append(in.seb, points(cfg.workload, rSEB, cfg.sebN))
		cons := lp.TangentConstraints(rLP, cfg.lpN)
		rng.ShuffleSlice(rLP, cons)
		cx, cy := lp.RandomObjective(rLP)
		in.lp = append(in.lp, lpInstance{cons: cons, cx: cx, cy: cy})
	}
	return in
}
