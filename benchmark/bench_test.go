package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lmc/internal/core"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode holds BENCHMARK.json and the tables in this
// package in step: same workloads, same metrics, same units and bounds.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the suite %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, suite %q", i, m.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the suite %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: manifest %+v, suite %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// TestProbesKeepReductions runs a symmetry-reduced check bare and through
// the traced machine and invariant: the probes must not hide
// model.Symmetric, so both count the same and both skip.
func TestProbesKeepReductions(t *testing.T) {
	in, err := buildGenSweep("sym,por")(1, true)
	if err != nil {
		t.Fatal(err)
	}
	bare := core.Check(in.m, in.start, in.opt)
	if bare.Stats.SymmetrySkips == 0 {
		t.Fatal("the reduced check skipped nothing: not a symmetry workload")
	}
	traced := *in
	traced.m, _ = traceMachine(in.m, 1)
	traced.opt.Invariant = &tracedInvariant{inner: in.opt.Invariant}
	got := core.Check(traced.m, traced.start, traced.opt)
	if d := diffVerdict(verdictOf(got), verdictOf(bare)); len(d) > 0 {
		t.Fatalf("traced check differs from the bare one: %s", strings.Join(d, "; "))
	}
}

// TestSuiteTiny runs every workload at tiny scale, untraced and traced, the
// way the driver does, and checks the last line: correct, and exactly the
// metric names BENCHMARK.json declares.
func TestSuiteTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries; skipped in -short")
	}
	m := readManifest(t)
	bin := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the benchmark: %v\n%s", err, out)
	}
	for _, w := range m.Workloads {
		for trace, defs := range map[string][]manifestMetric{"0": m.EndToEnd, "1": m.PerLayer} {
			out, err := exec.Command(bin, "-root", "..", "-scale", "tiny", "-seconds", "0",
				"-workload", w.Name, "-trace", trace, "-out", filepath.Join(t.TempDir(), "spans.json")).Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.Name, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v\n%s", w.Name, trace, err, out)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s: got %+v (present=%v), want unit %s", w.Name, trace, d.Name, got, ok, d.Unit)
				}
			}
		}
	}
}
