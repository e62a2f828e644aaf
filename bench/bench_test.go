package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness's own
// metric tables in step: the driver reads the file, the harness prints
// from the tables, and a name in one but not the other fails a run.
func TestBenchmarkJSONMatches(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths = %v, want %v", bj.Paths, want)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness default is %d", bj.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bj.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			sawSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs all four workloads and their layer passes at smoke
// size — 6k-host graphs (10k for solve-cold), 1-s phases, one set-up —
// against real spamserver processes. It asserts what must hold on any
// machine: every check passes, no operation fails, every end-to-end
// metric is measured, the three trace shapes are recorded, and nothing
// is left behind. It asserts no timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots spamserver processes; skipped under -short")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	tr := newTracer()
	for _, name := range workloadNames {
		res, err := runWorkload(h, tr, runOpts{workload: name, seed: 1, seconds: 1, layers: true, tiny: true})
		if err != nil {
			t.Fatalf("%v", err)
		}
		if !res.Correct {
			t.Errorf("%s: a correctness check failed: %+v", name, res.Checks)
		}
		if len(res.Checks) == 0 {
			t.Errorf("%s: ran no correctness check", name)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		if _, missing := pick(endToEnd, res.Metrics, false); len(missing) > 0 {
			t.Errorf("%s: end-to-end metrics not measured: %v", name, missing)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive measurement", name, d.Name, v)
			}
		}
		for _, d := range perLayer {
			if v, ok := res.Metrics[d.Name]; ok && v < 0 && d.Name != "obs.telemetry_overhead_pct" {
				t.Errorf("%s: %s = %v is negative", name, d.Name, v)
			}
		}
		switch name {
		case "lookup-direct":
			if _, ok := res.Metrics["shard.router_hop_us"]; ok {
				t.Errorf("%s reports a router hop", name)
			}
		case "lookup-routed":
			if !(res.Metrics["shard.router_hop_us"] > 0) {
				t.Errorf("%s: shard.router_hop_us = %v, want > 0", name, res.Metrics["shard.router_hop_us"])
			}
		case "ingest-fresh":
			for _, m := range []string{"delta_ack_p50_ms", "freshness_p50_ms", "deltas_per_s", "pagerank.solve_warm_iters", "serve.delta_build_ms"} {
				if !(res.Metrics[m] > 0) {
					t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m])
				}
			}
		case "solve-cold":
			for _, m := range []string{"pagerank.solve_cold_iters", "pagerank.sweep_edges_per_s_w1", "mass.estimate_cold_ms", "machine.copy_gb_per_s"} {
				if !(res.Metrics[m] > 0) {
					t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m])
				}
			}
		}
	}

	// All three trace shapes, with trace and parent identifiers.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	roots := map[string]int{}
	byID := map[int]span{}
	for _, s := range file.Spans {
		byID[s.ID] = s
		if s.Trace == 0 || s.End < s.Start {
			t.Fatalf("span %+v has no trace or runs backwards", s)
		}
	}
	for _, s := range file.Spans {
		if s.Parent == 0 {
			roots[s.Name]++
			continue
		}
		if p, ok := byID[s.Parent]; !ok || p.Trace != s.Trace {
			t.Fatalf("span %+v has a parent outside its trace", s)
		}
	}
	for _, shape := range []string{"refresh", "delta", "routed loopback"} {
		if roots[shape] == 0 {
			t.Errorf("trace.json holds no %q trace; roots: %v", shape, roots)
		}
	}

	// Hygiene: cleanup leaves no child running and no temp directory.
	children := h.children
	h.cleanup()
	for _, s := range children {
		select {
		case <-s.exited:
		default:
			t.Errorf("%s still running after cleanup", s.name)
		}
	}
	if _, err := os.Stat(h.tmp); !os.IsNotExist(err) {
		t.Errorf("temp directory %s survives cleanup (err %v)", h.tmp, err)
	}
}
