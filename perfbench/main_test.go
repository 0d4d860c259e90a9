package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace = workload, 7, trace
	cfg.seconds = 0 // one pass
	cfg.setupReps = 2
	cfg.dtN, cfg.serveN, cfg.t2K, cfg.cpN, cfg.sebN, cfg.lpN = 3000, 3000, 3, 2000, 2000, 2000
	cfg.ckptEvery = 4
	cfg.workDir, cfg.spanDir = t.TempDir(), t.TempDir()
	return cfg
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each prints exactly the declared metrics with their units
// and that no operation fails on the current code.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range []string{"uniform", "lattice"} {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			var log bytes.Buffer
			cfg := tinyConfig(t, w, trace)
			res, err := runBench(cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s printed but not declared", w, trace, name)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestBadFlags checks that a bad command line exits 2 without printing a
// result.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "uniform", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d, stdout %q; want 2 and no output", args, code, out.String())
		}
	}
}
