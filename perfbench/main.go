// Command perfbench is the repository's end-to-end benchmark. One run
// generates a workload from its seed, drives the program only through
// its public Go entry points — Delaunay builds at P=2, P=1 and
// sequentially, a serve-while-building Live build with an open-loop
// reader and a background checkpoint saver, restore-and-resume, and the
// Type 2 solvers — checks every output off the clock, and prints one JSON
// result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload uniform --seed 1 --seconds 50 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the run with
// a span around every call and prints the per-layer metrics instead,
// writing the spans to the work directory. README.md maps every metric
// to the layer it measures and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config sizes one run. defaultConfig is what the command line runs; the
// smoke test shrinks it.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	workDir   string // temporary space for checkpoints, removed at exit
	spanDir   string // where the traced run writes its spans
	procs     int    // the "P=2" worker count: min(2, NumCPU)
	setupReps int    // set-up repetitions; setup_s is their median
	dtN       int    // points per Delaunay build
	serveN    int    // points per serve build
	t2K       int    // instances per Type 2 solver
	cpN       int    // points per closest-pair instance
	sebN      int    // points per smallest-enclosing-disk instance
	lpN       int    // constraints per linear program
	readerQPS float64
	ckptEvery int // committed rounds between state captures
	restores  int // restores timed per pass
}

func defaultConfig() config {
	return config{
		procs:     min(2, runtime.NumCPU()),
		setupReps: 3,
		t2K:       512,
		cpN:       1 << 10,
		sebN:      1 << 12,
		lpN:       1 << 12,
		readerQPS: 2000,
		ckptEvery: 16,
		restores:  2,
	}
}

// outDir is where a run may write: under the build directory the
// wrapper uses (CARGO_TARGET_DIR when set), inside the checkout.
func outDir() string {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	return filepath.Join(base, "perfbench")
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	cfg := defaultConfig()
	fs.StringVar(&cfg.workload, "workload", "", "workload: uniform or lattice")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 50, "seconds of timed passes")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkWorkload(cfg.workload); err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(errOut, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	cfg.dtN, cfg.serveN = sizes[cfg.workload].dt, sizes[cfg.workload].serve
	cfg.spanDir = outDir()
	cfg.workDir = filepath.Join(cfg.spanDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(cfg.workDir)

	res, err := runBench(cfg, errOut)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: inputs, operation accounting, and the raw
// samples the metrics are computed from.
type bench struct {
	cfg config
	tr  *tracer
	in  *inputs
	t2  type2Solvers
	log io.Writer

	attempted atomic.Int64
	failed    atomic.Int64
	logMu     sync.Mutex
	logged    int

	s samples
}

// op counts one attempted operation and, when err is non-nil, its
// failure.
func (b *bench) op(what string, err error) {
	bad := int64(0)
	if err != nil {
		bad = 1
	}
	b.ops(what, 1, bad, err)
}

// ops counts n attempted operations of which bad failed; first, the
// first failure, is logged to standard error with the first few others.
func (b *bench) ops(what string, n, bad int64, first error) {
	b.attempted.Add(n)
	if bad == 0 {
		return
	}
	b.failed.Add(bad)
	b.logMu.Lock()
	defer b.logMu.Unlock()
	if b.logged < 20 {
		b.logged++
		fmt.Fprintf(b.log, "perfbench: FAIL %s (%d of %d): %v\n", what, bad, n, first)
	}
}

// measured runs f at GOMAXPROCS p, after a collection so that every
// measured call starts from the same heap, and returns the bytes f
// allocated.
func (b *bench) measured(p int, f func()) uint64 {
	runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(b.cfg.procs)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// timed is measured with f inside a span, also returning f's wall time
// in seconds.
func (b *bench) timed(name string, parent, run int64, p int, f func()) (sec float64, alloc uint64) {
	alloc = b.measured(p, func() {
		sp := b.tr.begin(name, parent, run)
		t := time.Now()
		f()
		sec = time.Since(t).Seconds()
		b.tr.end(sp)
	})
	return sec, alloc
}

func runBench(cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	runtime.GOMAXPROCS(cfg.procs)
	b := &bench{cfg: cfg, tr: newTracer(cfg.trace), log: log}
	t0 := time.Now()
	b.setup()
	// Passes run while the next one is expected to end within the
	// measured seconds; there is always at least one.
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start).Seconds()*float64(passes+1)/float64(passes) <= cfg.seconds {
		passes++
		b.pass(int64(passes))
	}
	t1 := time.Now()
	b.finalChecks()
	fmt.Fprintf(log, "perfbench: %s seed %d: set-up %.1fs, %d passes %.1fs, checks %.1fs\n",
		cfg.workload, cfg.seed, start.Sub(t0).Seconds(), passes, t1.Sub(start).Seconds(), time.Since(t1).Seconds())

	res := &result{}
	if cfg.trace {
		res.Metrics = b.layerMetrics() // runs the probes, which count operations too
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := b.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
	} else {
		res.Metrics = b.endToEnd()
	}
	res.Attempted, res.Failed = b.attempted.Load(), b.failed.Load()
	res.Correct = res.Failed == 0
	return res, nil
}

// setup generates the inputs and warms every entry point up, several
// times; setup_s is the median repetition.
func (b *bench) setup() {
	for i := 0; i < b.cfg.setupReps; i++ {
		sp := b.tr.begin("setup", 0, 0)
		t := time.Now()
		b.in = generate(b.cfg)
		b.warmUp(sp.ID)
		b.s.setup = append(b.s.setup, time.Since(t).Seconds())
		b.tr.end(sp)
	}
	b.t2 = newType2(b.in, b.cfg.t2K)
}
