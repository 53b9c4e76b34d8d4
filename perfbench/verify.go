package main

import (
	"fmt"

	"mclg/internal/design"
	"mclg/internal/metrics"
	"mclg/internal/regress"
)

// quality is the deterministic outcome of one legalized design.
type quality struct {
	hash       string
	totalSites float64
	maxSites   float64
	hpwl       float64
	hpwlGP     float64
}

// checkPlacement is the correctness gate every legalized design passes
// through: the whole-design legality checker must accept it. It returns the
// design's quality figures and an error naming the first violations.
func checkPlacement(d *design.Design) (quality, error) {
	q := quality{hash: regress.PositionHash(d)}
	if rep := design.CheckLegal(d); !rep.Legal() {
		n := len(rep.Violations)
		return q, fmt.Errorf("illegal placement: %d violations, first %s", n, rep.Violations[0].Kind)
	}
	disp := metrics.MeasureDisplacement(d)
	q.totalSites, q.maxSites = disp.TotalSites, disp.MaxSites
	q.hpwl, q.hpwlGP = metrics.HPWL(d), metrics.HPWLGlobal(d)
	return q, nil
}

// panelQuality aggregates quality over a run's designs: total displacement,
// largest single-cell displacement, and ΔHPWL in percent over the summed
// wirelength.
func panelQuality(qs []quality) (total, maxd, dhpwlPct float64) {
	var h, hg float64
	for _, q := range qs {
		total += q.totalSites
		if q.maxSites > maxd {
			maxd = q.maxSites
		}
		h += q.hpwl
		hg += q.hpwlGP
	}
	if hg > 0 {
		dhpwlPct = 100 * (h - hg) / hg
	}
	return total, maxd, dhpwlPct
}
