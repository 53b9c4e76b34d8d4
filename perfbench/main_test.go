package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mclg/internal/core"
)

// smoke runs one workload at a tiny scale and returns the detail report and
// the result line.
func smoke(t *testing.T, workload string, trace bool) (map[string]any, map[string]any) {
	t.Helper()
	cfg := config{
		workload: workload, seed: 7, seconds: 2, trace: trace, scale: 0.05,
		designSeeds: []int64{1, 2}, outDir: t.TempDir(),
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if err := res.print(&buf, trace); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: want a detail line and a result line, got %d lines", workload, len(lines))
	}
	var detail, last map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &detail); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	return detail, last
}

func TestSmokeEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"mono-dense", "windowed-dense", "served-mix"} {
		for _, trace := range []bool{false, true} {
			detail, last := smoke(t, w, trace)
			if last["correct"] != true || last["failed"].(float64) != 0 {
				t.Errorf("%s trace=%v: run not correct: %v", w, trace, detail["failures"])
			}
			if last["attempted"].(float64) < 1 {
				t.Errorf("%s trace=%v: attempted < 1", w, trace)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			metrics := last["metrics"].(map[string]any)
			all := detail["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.name].(map[string]any)
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.name)
					continue
				}
				if got["unit"] != m.unit {
					t.Errorf("%s: metric %s unit %v, want %s", w, m.name, got["unit"], m.unit)
				}
				d := all[m.name].(map[string]any)
				if _, ok := d["samples"]; !ok {
					t.Errorf("%s: metric %s has no sample count", w, m.name)
				}
				// Every end-to-end metric is measured on every workload.
				if !trace && (d["samples"].(float64) < 1 || got["value"].(float64) <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v with %v samples", w, m.name, got["value"], d["samples"])
				}
			}
		}
	}
}

// TestDefectsVisible checks that the traced runs see the two known defects
// the benchmark exists to track: kernel-level parallelism slower than
// serial, and windowed placements worse than monolithic ones.
func TestDefectsVisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dense workloads")
	}
	_, mono := smoke(t, "mono-dense", true)
	if v := metricValue(mono, "lcp.speedup_vs_serial"); v <= 0 {
		t.Errorf("lcp.speedup_vs_serial = %v, want a measured ratio", v)
	}
	_, win := smoke(t, "windowed-dense", true)
	if v := metricValue(win, "window.disp_ratio_vs_mono"); v <= 1 {
		t.Errorf("window.disp_ratio_vs_mono = %v, want > 1 on this tree", v)
	}
}

func metricValue(last map[string]any, name string) float64 {
	return last["metrics"].(map[string]any)[name].(map[string]any)["value"].(float64)
}

// TestGateFiresOnCorruptedPlacement legalizes a small design, then moves a
// cell onto its neighbour: the correctness gate must reject it.
func TestGateFiresOnCorruptedPlacement(t *testing.T) {
	cfg := config{seed: 3, scale: 0.1, designSeeds: []int64{1}}
	d, err := warmupDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.New(coreOpts(1)).LegalizeContext(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	q, err := checkPlacement(d)
	if err != nil {
		t.Fatalf("legal placement rejected: %v", err)
	}
	a, b := d.Cells[0], d.Cells[1]
	b.X, b.Y = a.X, a.Y
	if _, err := checkPlacement(d); err == nil {
		t.Fatal("gate accepted overlapping cells")
	}
	b.X += 0.5 * d.SiteW
	if _, err := checkPlacement(d); err == nil {
		t.Fatal("gate accepted an off-site cell")
	}
	if q.hash == "" {
		t.Fatal("no position hash")
	}
}

// TestServedGateFiresOnHashMismatch feeds the served-mix verifier a repeat
// whose pos_hash differs from its target's, and a traced ECO apply whose
// result differs from the untraced one: each must count a failed job.
func TestServedGateFiresOnHashMismatch(t *testing.T) {
	in := &mixInputs{reqs: []*request{
		{class: "repeat", target: -1, status: 200, rep: wireReport{PosHash: "0000000000000001", Legal: true}},
		{class: "eco", status: 200, eco: ecoApply("00000000000000a1")},
	}}
	warm := []wireReport{{PosHash: "0000000000000002"}}
	res := newResult(config{workload: "served-mix"})
	servedVerify(res, in.reqs, "", expectReferences(in, warm, map[int]reference{}))
	if len(res.failedJob) != 1 || !res.failedJob["req-0/repeat"] {
		t.Fatalf("untraced phase: failed jobs %v, want the repeat", res.failures)
	}
	traced := []*request{
		{class: "repeat", target: -1, status: 200, rep: wireReport{PosHash: "0000000000000001", Legal: true}},
		{class: "eco", status: 200, eco: ecoApply("00000000000000a2")},
	}
	res = newResult(config{workload: "served-mix"})
	servedVerify(res, traced, "/traced", expectUntraced(in))
	if len(res.failedJob) != 1 || !res.failedJob["req-1/eco/traced"] {
		t.Fatalf("traced phase: failed jobs %v, want the ECO apply", res.failures)
	}
}

func ecoApply(hash string) ecoWire {
	var w ecoWire
	w.Apply = &struct {
		Bands   int    `json:"bands"`
		PosHash string `json:"pos_hash"`
	}{Bands: 1, PosHash: hash}
	return w
}

// TestServedGateFiresOnFailedCommit commits a session the daemon never
// opened: the commit must count as a failed job.
func TestServedGateFiresOnFailedCommit(t *testing.T) {
	s, err := startServed()
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	res := newResult(config{workload: "served-mix"})
	commitSessions(s, res, 1, "")
	if res.attempted != 1 || !res.failedJob["session eco-0"] {
		t.Fatalf("attempted %d, failures %v: want the session commit failed", res.attempted, res.failures)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	for _, w := range spec.Workloads {
		if _, err := parseFlags([]string{"--workload", w.Name}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}
