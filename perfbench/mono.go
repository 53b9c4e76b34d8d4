package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/tetris"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// runPasses starts passes while less than seconds have elapsed, so the
// last pass may run past the end. Deciding on elapsed time alone keeps the
// pass count stable when the machine's speed drifts (mono-dense: two passes
// of 13–17 s). It returns the measured wall time.
func runPasses(seconds float64, pass func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; since(t0) < seconds; i++ {
		if err := pass(i); err != nil {
			return since(t0), err
		}
	}
	return since(t0), nil
}

// coreOpts returns the paper-default legalizer options at workers.
func coreOpts(workers int) core.Options {
	o := core.DefaultOptions()
	o.Workers = workers
	return o
}

// monoSetup times set-up for the dense workloads: warm-up jobs on a small
// design at both worker counts.
func monoSetup(cfg config, res *result) error {
	warm, err := warmupDesign(cfg)
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		for _, w := range []int{nproc, 1} {
			if _, err := core.New(coreOpts(w)).LegalizeContext(context.Background(), warm.Clone()); err != nil {
				return fmt.Errorf("warm-up job: %w", err)
			}
		}
		times = append(times, since(t))
	}
	res.e2e("setup_s", median(times), "s", len(times))
	return nil
}

// denseRun is the outcome of a dense workload's untraced passes.
type denseRun struct {
	panel    []*design.Design
	par, ser [][]float64 // per-design job wall times at nproc and at 1
	qs       []quality   // per-design quality of the first job
	hashes   []string
}

// runDense is the untraced phase shared by the dense workloads: a closed
// loop, one job at a time, running solve on a fresh clone of each panel
// design at Workers = nproc and again at Workers = 1, in passes for the run
// time. Every job passes the correctness gate and must repeat the design's
// first position hash. It reports the end-to-end metrics.
func runDense(cfg config, res *result, kind string, solve func(d *design.Design, workers int) error) (*denseRun, error) {
	panel, err := densePanel(cfg)
	if err != nil {
		return nil, err
	}
	if err := monoSetup(cfg, res); err != nil {
		return nil, err
	}
	n := len(panel)
	run := &denseRun{
		panel: panel, par: make([][]float64, n), ser: make([][]float64, n),
		qs: make([]quality, n), hashes: make([]string, n),
	}
	var ok int
	wall, err := runPasses(cfg.seconds, func(pass int) error {
		for i, d := range panel {
			for _, w := range []int{nproc, 1} {
				job := fmt.Sprintf("%s/%s/w%d/pass%d", d.Name, kind, w, pass)
				res.attempted++
				c := d.Clone()
				t := time.Now()
				err := solve(c, w)
				el := since(t)
				if err != nil {
					res.fail(job, "%v", err)
					continue
				}
				q, err := checkPlacement(c)
				if err != nil {
					res.fail(job, "%v", err)
					continue
				}
				if run.hashes[i] == "" {
					run.hashes[i], run.qs[i] = q.hash, q
				} else if q.hash != run.hashes[i] {
					res.fail(job, "position hash %s differs from %s (first job of this design)", q.hash, run.hashes[i])
					continue
				}
				ok++
				if w == 1 {
					run.ser[i] = append(run.ser[i], el)
				} else {
					run.par[i] = append(run.par[i], el)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nPar, nSer := 0, 0
	for i := range panel {
		nPar += len(run.par[i])
		nSer += len(run.ser[i])
	}
	total, maxd, dh := panelQuality(run.qs)
	res.e2e("legalize_s", panelMedian(run.par), "s", nPar)
	res.e2e("legalize_serial_s", panelMedian(run.ser), "s", nSer)
	res.e2e("latency_p50_ms", 1e3*panelMedian(run.par), "ms", nPar)
	res.e2e("goodput_rps", float64(ok)/wall, "1/s", ok)
	res.e2e("disp_total_sites", total, "sites", n)
	res.e2e("disp_max_sites", maxd, "sites", n)
	res.e2e("delta_hpwl_pct", dh, "%", n)
	for i, d := range panel {
		res.designs = append(res.designs, map[string]any{
			"design": d.Name, "cells": len(d.Cells), "pos_hash": run.hashes[i],
			"disp_total_sites": run.qs[i].totalSites, "disp_max_sites": run.qs[i].maxSites,
		})
	}
	return run, nil
}

// runMono is the mono-dense workload: the panel through core.Legalizer.
func runMono(cfg config, res *result) error {
	run, err := runDense(cfg, res, "mono", func(d *design.Design, workers int) error {
		_, err := core.New(coreOpts(workers)).LegalizeContext(context.Background(), d)
		return err
	})
	if err != nil || !cfg.trace {
		return err
	}
	return traceMono(res, run)
}

// panelMedian is the per-job wall time of a panel: the mean over designs of
// each design's median job time, so every design weighs in and one slow
// pass does not.
func panelMedian(perDesign [][]float64) float64 {
	t := 0.0
	for _, xs := range perDesign {
		t += median(xs)
	}
	return t / float64(len(perDesign))
}

// iterClock records when a job's MMSIM iterations ran, through OnIter.
type iterClock struct {
	tr          *tracer
	job         string
	n           int
	first, last time.Time
}

func (c *iterClock) onIter(k int, dz float64) {
	now := time.Now()
	if c.n == 0 {
		c.first = now
	}
	c.last = now
	c.n++
	c.tr.iter(c.job, k, dz)
}

// monoReplicas is how many traced replicas mono-dense runs of each design
// at each worker count; the per-layer figures are medians over them.
const monoReplicas = 2

// monoTrace is one traced job's layer timings.
type monoTrace struct {
	assign, build, pre, iterate, post, legalize, tetris, wall float64
	iters, illegal, nnz, n                                    int
	allocMB                                                   float64
}

// tracedJob legalizes a replica of d at workers with a span around each
// layer call: row assignment and problem build on a separate clone, then
// LegalizeContext and the Tetris allocation as the two stages of the job
// itself. The first and last OnIter split the LegalizeContext span into
// pre-iterate, iterate and post-iterate child spans. The replica's final
// placement is returned for the hash check.
func tracedJob(tr *tracer, d *design.Design, workers, replica int) (*design.Design, monoTrace, error) {
	job := fmt.Sprintf("%s/w%d/traced%d", d.Name, workers, replica)
	var mt monoTrace
	ctx := context.Background()

	probe := d.Clone()
	root := tr.begin("core.probe", job, -1)
	s := tr.begin("core.assign", job, root)
	if err := core.AssignRowsP(probe, workers); err != nil {
		return nil, mt, err
	}
	mt.assign = tr.end(s)
	s = tr.begin("core.build", job, root)
	p, err := core.BuildProblemBounded(probe, core.DefaultOptions().Lambda, false)
	if err != nil {
		return nil, mt, err
	}
	mt.build = tr.end(s)
	tr.end(root)
	mt.nnz, mt.n = p.AssembleLCPMatrix().NNZ(), p.NumVars+p.NumCons

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r := d.Clone()
	clock := &iterClock{tr: tr, job: job}
	opts := coreOpts(workers)
	opts.SkipTetris = true
	opts.OnIter = clock.onIter
	root = tr.begin("job", job, -1)
	leg := tr.begin("core.legalize", job, root)
	t0 := time.Now()
	st, err := core.New(opts).LegalizeContext(ctx, r)
	if err != nil {
		return nil, mt, err
	}
	t1 := time.Now()
	mt.legalize = tr.end(leg)
	if clock.n == 0 {
		return nil, mt, fmt.Errorf("%s: no MMSIM iterations observed", job)
	}
	tr.add("core.pre_iterate", job, leg, t0, clock.first)
	tr.add("lcp.iterate", job, leg, clock.first, clock.last)
	tr.add("core.post_iterate", job, leg, clock.last, t1)
	s = tr.begin("tetris", job, root)
	tres, err := tetris.AllocateContextP(ctx, r, workers)
	if err != nil {
		return nil, mt, err
	}
	mt.tetris = tr.end(s)
	mt.wall = tr.end(root)
	runtime.ReadMemStats(&ms1)
	mt.pre = clock.first.Sub(t0).Seconds()
	mt.iterate = clock.last.Sub(clock.first).Seconds()
	mt.post = t1.Sub(clock.last).Seconds() + mt.tetris
	mt.iters = st.Iterations
	mt.illegal = tres.Illegal
	mt.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	return r, mt, nil
}

// traceMono is the traced pass of mono-dense: monoReplicas replicas of
// each panel design at both worker counts, every layer call wrapped in a
// span, and each replica's hash checked against the untraced result.
//
// trace.coverage divides the two entry-point spans of a replica
// (LegalizeContext and AllocateContextP) by the median untraced job time of
// the same design and worker count, a time they are not cut from: it falls
// below 1 when the job spends time outside the calls the trace names.
func traceMono(res *result, run *denseRun) error {
	var pre, assign, build, post, tet, illegal, iters, iterUS, iterUSSer, speedup, nnz, gbs, alloc, cov, traced []float64
	for i, d := range run.panel {
		for k := 0; k < monoReplicas; k++ {
			var usPar float64
			for _, w := range []int{nproc, 1} {
				job := fmt.Sprintf("%s/w%d/traced%d", d.Name, w, k)
				res.attempted++
				r, mt, err := tracedJob(res.tr, d, w, k)
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
				us := 1e6 * mt.iterate / float64(max(mt.iters-1, 1))
				untraced := median(run.par[i])
				if w == 1 {
					untraced = median(run.ser[i])
				}
				cov = append(cov, (mt.legalize+mt.tetris)/untraced)
				traced = append(traced, mt.wall/untraced)
				if w == 1 {
					iterUSSer = append(iterUSSer, us)
					if usPar > 0 {
						speedup = append(speedup, us/usPar)
					}
					continue
				}
				usPar = us
				pre = append(pre, 1e3*mt.pre)
				assign = append(assign, 1e3*mt.assign)
				build = append(build, 1e3*mt.build)
				post = append(post, 1e3*mt.post)
				tet = append(tet, 1e3*mt.tetris)
				iterUS = append(iterUS, us)
				gbs = append(gbs, computedBytesPerIter(mt.nnz, mt.n)/(us*1e3))
				alloc = append(alloc, mt.allocMB)
				if k == 0 {
					illegal = append(illegal, float64(mt.illegal))
					iters = append(iters, float64(mt.iters))
					nnz = append(nnz, float64(mt.nnz))
					res.designs[i]["iterations"] = mt.iters
				}
			}
		}
	}
	res.layer("core.pre_iterate_ms", median(pre), "ms", len(pre))
	res.layer("core.assign_ms", median(assign), "ms", len(assign))
	res.layer("core.build_ms", median(build), "ms", len(build))
	res.layer("core.post_iterate_ms", median(post), "ms", len(post))
	res.layer("core.alloc_mb_per_job", median(alloc), "MiB", len(alloc))
	res.layer("tetris.ms", median(tet), "ms", len(tet))
	res.layer("tetris.illegal_cells", sum(illegal), "count", len(illegal))
	res.layer("lcp.iterations", median(iters), "count", len(iters))
	res.layer("lcp.iter_us", median(iterUS), "us", len(iterUS))
	res.layer("lcp.iter_us_serial", median(iterUSSer), "us", len(iterUSSer))
	res.layer("lcp.speedup_vs_serial", median(speedup), "ratio", len(speedup))
	res.layer("lcp.nnz", median(nnz), "count", len(nnz))
	res.layerNote("lcp.gbytes_per_s_computed", median(gbs), "GB/s", len(gbs),
		"computed from nnz and n, not measured; the working set fits in cache")
	res.layerNote("trace.coverage", median(cov), "ratio", len(cov),
		"LegalizeContext + AllocateContextP spans of each traced replica over the median untraced job of the same design and worker count")
	res.layerNote("trace.overhead_frac", median(traced)-1, "ratio", len(traced),
		"traced job over the median untraced job of the same design and worker count")
	return nil
}

// computedBytesPerIter is the data one MMSIM iteration streams, computed
// from the LCP size: the CSR matrix once (8-byte value and 8-byte column
// index per entry) plus six float64 vector passes over n entries.
func computedBytesPerIter(nnz, n int) float64 {
	return 16*float64(nnz) + 48*float64(n)
}
