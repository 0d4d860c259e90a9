package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into the program, recorded from the benchmark's
// side of a layer boundary. Start and End are nanoseconds since the
// tracer was created; Parent is the span that caused this one (0 for a
// root); Run groups the spans of one timed pass (0 = set-up, -1 = the
// per-layer probes).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and never reads the clock, so the untraced run pays
// only a branch per call site.
type tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span; pass the result to end. The zero span (ID 0) comes
// back when tracing is off.
func (tr *tracer) begin(name string, parent, run int64) span {
	if !tr.on {
		return span{}
	}
	return span{ID: tr.ids.Add(1), Parent: parent, Run: run, Name: name, Start: int64(time.Since(tr.t0))}
}

// end closes s and keeps it. Safe from any goroutine.
func (tr *tracer) end(s span) {
	if !tr.on {
		return
	}
	s.End = int64(time.Since(tr.t0))
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName returns the durations in seconds of every span called name.
func (tr *tracer) byName(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfSeconds returns, per span name, the median over runs (passes) of
// the summed self time of that name's spans in the run. A span's self
// time is its duration minus the part of its interval that its children
// cover; children on other goroutines that outlive the parent (a save
// parented to its capture) are clipped to the parent's interval.
func (tr *tracer) selfSeconds() map[string]float64 {
	kids := make(map[int64][]span)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	perRun := make(map[string]map[int64]float64)
	for _, s := range tr.spans {
		self := s.End - s.Start - covered(s, kids[s.ID])
		if perRun[s.Name] == nil {
			perRun[s.Name] = make(map[int64]float64)
		}
		perRun[s.Name][s.Run] += float64(self) / 1e9
	}
	out := make(map[string]float64, len(perRun))
	for name, runs := range perRun {
		var v []float64
		for _, x := range runs {
			v = append(v, x)
		}
		out[name] = median(v)
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to p's interval.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// spanCost measures what one begin/end pair costs on this host, so the
// traced run can state its own overhead.
func spanCost() float64 {
	tr := newTracer(true)
	const n = 200000
	tr.spans = make([]span, 0, n)
	t := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("x", 0, 0))
	}
	return float64(time.Since(t).Nanoseconds()) / n
}
