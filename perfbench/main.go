// Command perfbench is the mclg benchmark. It runs one workload per process
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with -trace 1 they are the per-layer metrics of a separate
// traced pass, each timed from outside around calls into the layer's public
// entry points. A detail report (every metric with its unit and sample
// count, per-design figures and failures by name) is printed on the line
// before the result.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload mono-dense --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// nproc is the worker count the workloads run at (2 on the 2-core machine
// the recorded numbers come from); the benchmark generates load with at most
// nproc threads of solver work and nproc connections.
var nproc = runtime.NumCPU()

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every design size. parseFlags sets 1, the benchmark;
	// the package's own smoke tests set smaller values directly.
	scale float64
	// designSeeds are the des_perf_1 generator seeds of the dense panel.
	designSeeds []int64
	// outDir receives the trace file.
	outDir string
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "mono-dense | windowed-dense | served-mix")
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 20, "measured duration of the run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	designs := fs.String("design-seeds", "1,2,3", "des_perf_1 generator seeds of the dense panel")
	out := fs.String("out", ".bench_build/trace", "directory for the trace file")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: 1, outDir: *out,
	}
	switch cfg.workload {
	case "mono-dense", "windowed-dense", "served-mix":
	default:
		return config{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if cfg.seconds <= 0 {
		return config{}, fmt.Errorf("-seconds must be positive")
	}
	for _, f := range strings.Split(*designs, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return config{}, fmt.Errorf("-design-seeds: %w", err)
		}
		cfg.designSeeds = append(cfg.designSeeds, s)
	}
	return cfg, nil
}

func run(cfg config) (*result, error) {
	res := newResult(cfg)
	var err error
	switch cfg.workload {
	case "mono-dense":
		err = runMono(cfg, res)
	case "windowed-dense":
		err = runWindowed(cfg, res)
	case "served-mix":
		err = runServed(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.e2e("peak_rss_mb", peakRSSMB(), "MiB", 1)
	if cfg.trace {
		res.fillUnexercised()
		if err := res.tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// result accumulates one run's metrics, job counts and failures.
type result struct {
	cfg       config
	endToEnd  map[string]metric
	perLayer  map[string]metric
	attempted int
	failures  []string
	failedJob map[string]bool
	designs   []map[string]any
	tr        *tracer
}

func newResult(cfg config) *result {
	return &result{
		cfg:       cfg,
		endToEnd:  map[string]metric{},
		perLayer:  map[string]metric{},
		failedJob: map[string]bool{},
		tr:        newTracer(cfg.trace),
	}
}

func (r *result) e2e(name string, v float64, unit string, n int) {
	r.endToEnd[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (r *result) layer(name string, v float64, unit string, n int) {
	r.perLayer[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (r *result) layerNote(name string, v float64, unit string, n int, note string) {
	r.perLayer[name] = metric{Value: v, Unit: unit, Samples: n, Note: note}
}

// fail records a failed check of one job by name; the job counts as failed
// and the run as incorrect.
func (r *result) fail(job, format string, args ...any) {
	r.failures = append(r.failures, job+": "+fmt.Sprintf(format, args...))
	r.failedJob[job] = true
}

// fillUnexercised reports every per-layer metric the workload's layers do
// not produce as 0 with samples 0, so every traced run emits the full set.
func (r *result) fillUnexercised() {
	for _, m := range perLayerMetrics {
		if _, ok := r.perLayer[m.name]; !ok {
			r.perLayer[m.name] = metric{Value: 0, Unit: m.unit, Note: "not exercised by " + r.cfg.workload}
		}
	}
}

// print writes the detail report line, then the result line.
func (r *result) print(w io.Writer, trace bool) error {
	src := r.endToEnd
	want := endToEndMetrics
	if trace {
		src, want = r.perLayer, perLayerMetrics
	}
	out := map[string]map[string]any{}
	for _, m := range want {
		v, ok := src[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.cfg.workload, m.name)
		}
		if v.Unit != m.unit {
			return fmt.Errorf("%s: metric %s has unit %s, want %s", r.cfg.workload, m.name, v.Unit, m.unit)
		}
		out[m.name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	detail := map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "trace": trace,
		"metrics": src, "designs": r.designs, "failures": r.failures,
		"attempted": r.attempted,
	}
	d, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	last, err := json.Marshal(map[string]any{
		"correct": len(r.failures) == 0, "attempted": r.attempted,
		"failed": len(r.failedJob), "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", d, last)
	return err
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// since returns seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
