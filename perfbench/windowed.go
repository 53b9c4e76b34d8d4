package main

import (
	"context"
	"fmt"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/window"
)

// windowOpts returns window.Legalize's defaults (16-row bands, 2 context
// rows, no hedge, no exact pass) at workers.
func windowOpts(workers int) window.Options {
	return window.Options{Cascade: core.ResilientOptions{Base: coreOpts(workers)}}
}

// runWindowed is the windowed-dense workload: the mono-dense panel (same
// seeds, same inputs) through window.Legalize with defaults.
func runWindowed(cfg config, res *result) error {
	var retries, degraded int
	run, err := runDense(cfg, res, "windowed", func(d *design.Design, workers int) error {
		st, err := window.Legalize(context.Background(), d, windowOpts(workers))
		if err != nil {
			return err
		}
		retries += st.Retries
		degraded += st.Degraded
		return nil
	})
	if err != nil || !cfg.trace {
		return err
	}
	res.layer("window.retries", float64(retries), "count", res.attempted)
	res.layer("window.degraded", float64(degraded), "count", res.attempted)
	return traceWindowed(res, run)
}

// windowReplicas is how many serial traced replicas windowed-dense runs of
// each design. A replica takes under a second, and one replica's time
// strays ±15% from an untraced run's on a noisy host, so the medians
// take more of them than on mono-dense.
const windowReplicas = 5

// windowTrace is one traced windowed job's layer timings.
type windowTrace struct {
	windows                 int
	partition, stitch, wall float64
	solves                  []float64
	iters                   int
}

// tracedWindowed replays window.Legalize's stages serially on a replica of
// d, with a span around each public entry point: Partition, BuildSub plus
// SolveSubDesign for every band, and Stitch.
func tracedWindowed(tr *tracer, d *design.Design, replica int) (*design.Design, windowTrace, error) {
	job := fmt.Sprintf("%s/windowed/traced%d", d.Name, replica)
	var wt windowTrace
	ctx := context.Background()
	r := d.Clone()
	clock := &iterClock{tr: tr, job: job}
	cascade := core.ResilientOptions{Base: coreOpts(1)}
	cascade.Base.OnIter = clock.onIter

	root := tr.begin("job", job, -1)
	s := tr.begin("window.partition", job, root)
	plan, err := window.Partition(r, window.DefaultWindowRows, window.DefaultContextRows)
	if err != nil {
		return nil, wt, err
	}
	wt.partition = tr.end(s)
	wt.windows = len(plan.Bands)
	results := make([]*window.Result, len(plan.Bands))
	for i := range plan.Bands {
		s = tr.begin("window.solve", job, root)
		sub, idx := window.BuildSub(r, plan, &plan.Bands[i])
		results[i], err = window.SolveSubDesign(ctx, sub, idx, i, cascade)
		if err != nil {
			return nil, wt, fmt.Errorf("window %d: %w", i, err)
		}
		wt.solves = append(wt.solves, tr.end(s))
	}
	s = tr.begin("window.stitch", job, root)
	if err := window.Stitch(ctx, r, results, 1); err != nil {
		return nil, wt, err
	}
	wt.stitch = tr.end(s)
	wt.wall = tr.end(root)
	wt.iters = clock.n
	return r, wt, nil
}

// traceWindowed is the traced pass of windowed-dense: windowReplicas serial
// replicas of each design's windowed run (each hash must equal the untraced
// result), and a monolithic solve of the same design as the quality
// reference.
//
// trace.coverage divides a replica's entry-point spans (Partition, the band
// solves and Stitch) by the median untraced window.Legalize time of the
// same design at Workers = 1, a time they are not cut from.
func traceWindowed(res *result, run *denseRun) error {
	var part, stitch, solveSum, solveMax, iters, count, speedup, cov, traced []float64
	var mono []quality
	for i, d := range run.panel {
		for k := 0; k < windowReplicas; k++ {
			job := fmt.Sprintf("%s/windowed/traced%d", d.Name, k)
			res.attempted++
			r, wt, err := tracedWindowed(res.tr, d, k)
			if err != nil {
				res.fail(job, "%v", err)
				continue
			}
			if q, err := checkPlacement(r); err != nil {
				res.fail(job, "%v", err)
				continue
			} else if q.hash != run.hashes[i] {
				res.fail(job, "traced replica hash %s differs from untraced %s", q.hash, run.hashes[i])
				continue
			}
			part = append(part, 1e3*wt.partition)
			stitch = append(stitch, 1e3*wt.stitch)
			solveSum = append(solveSum, sum(wt.solves))
			solveMax = append(solveMax, maxOf(wt.solves))
			speedup = append(speedup, wt.wall/median(run.par[i]))
			cov = append(cov, (wt.partition+sum(wt.solves)+wt.stitch)/median(run.ser[i]))
			traced = append(traced, wt.wall/median(run.ser[i]))
			if k == 0 {
				count = append(count, float64(wt.windows))
				iters = append(iters, float64(wt.iters))
				res.designs[i]["windows"] = wt.windows
				res.designs[i]["iterations_sum"] = wt.iters
			}
		}

		mjob := d.Name + "/mono-reference"
		res.attempted++
		m := d.Clone()
		s := res.tr.begin("mono-reference", mjob, -1)
		if _, err := core.New(coreOpts(nproc)).LegalizeContext(context.Background(), m); err != nil {
			res.fail(mjob, "legalize: %v", err)
			continue
		}
		res.tr.end(s)
		q, err := checkPlacement(m)
		if err != nil {
			res.fail(mjob, "%v", err)
			continue
		}
		mono = append(mono, q)
		res.designs[i]["mono_disp_total_sites"] = q.totalSites
		res.designs[i]["mono_disp_max_sites"] = q.maxSites
	}
	res.layer("window.count", median(count), "count", len(count))
	res.layer("window.partition_ms", median(part), "ms", len(part))
	res.layer("window.stitch_ms", median(stitch), "ms", len(stitch))
	res.layer("window.solve_sum_s", median(solveSum), "s", len(solveSum))
	res.layer("window.solve_max_s", median(solveMax), "s", len(solveMax))
	res.layer("window.iterations_sum", median(iters), "count", len(iters))
	res.layer("lcp.iterations", median(iters), "count", len(iters))
	res.layer("window.speedup_vs_serial", median(speedup), "ratio", len(speedup))
	if len(mono) == len(run.qs) {
		wTotal, wMax, _ := panelQuality(run.qs)
		mTotal, mMax, _ := panelQuality(mono)
		res.layer("window.disp_ratio_vs_mono", wTotal/mTotal, "ratio", len(mono))
		res.layer("window.maxdisp_ratio_vs_mono", wMax/mMax, "ratio", len(mono))
	}
	res.layerNote("trace.coverage", median(cov), "ratio", len(cov),
		"Partition + band solve + Stitch spans of each serial replica over the median untraced window.Legalize at Workers = 1")
	res.layerNote("trace.overhead_frac", median(traced)-1, "ratio", len(traced),
		"serial traced replica over the median untraced window.Legalize at Workers = 1")
	return nil
}
