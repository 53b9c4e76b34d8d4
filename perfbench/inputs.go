package main

import (
	"fmt"
	"math"
	"math/rand"

	"mclg/internal/design"
	"mclg/internal/gen"
)

// denseScale is the des_perf_1 scale of the dense panel: ~11k cells, ~12k
// variables and ~12k constraints at density 0.91.
const denseScale = 0.1

// replaceSigma is the standard deviation, in sites, of the global-placement
// re-placement noise the workload seed draws on top of each panel design.
// MMSIM iteration counts vary 1.4k–7.1k across des_perf_1 generator seeds,
// so panels drawn afresh per workload seed would spread legalize_s far
// beyond any usable bound; noise this small keeps each design's iteration
// count within a few percent while every seed still yields new inputs.
const replaceSigma = 0.05

// densePanel generates the dense panel: one des_perf_1-shaped design per
// design seed, each re-placed with the workload seed's noise.
func densePanel(cfg config) ([]*design.Design, error) {
	e, err := gen.FindEntry("des_perf_1")
	if err != nil {
		return nil, err
	}
	var out []*design.Design
	for _, ds := range cfg.designSeeds {
		spec := gen.SuiteSpec(e, denseScale*cfg.scale)
		spec.Seed = ds
		spec.Name = fmt.Sprintf("des_perf_1-s%d", ds)
		d, err := gen.Generate(spec)
		if err != nil {
			return nil, err
		}
		replace(d, rand.New(rand.NewSource(cfg.seed*1_000_003+ds)), replaceSigma)
		out = append(out, d)
	}
	return out, nil
}

// replace moves every movable cell's global-placement x by Gaussian noise of
// sigma sites, clamped to the core, and resets the current position to it.
func replace(d *design.Design, rng *rand.Rand, sigma float64) {
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		x := c.GX + rng.NormFloat64()*sigma*d.SiteW
		c.GX = math.Min(math.Max(x, d.Core.Lo.X), d.Core.Hi.X-c.W)
		c.X, c.Y = c.GX, c.GY
	}
}

// warmupDesign is the small design set-up legalizes to warm the runtime:
// the first panel design at a tenth of the size, re-placed like the panel.
func warmupDesign(cfg config) (*design.Design, error) {
	e, err := gen.FindEntry("des_perf_1")
	if err != nil {
		return nil, err
	}
	spec := gen.SuiteSpec(e, denseScale/10*cfg.scale)
	spec.Seed = cfg.designSeeds[0]
	d, err := gen.Generate(spec)
	if err != nil {
		return nil, err
	}
	replace(d, rand.New(rand.NewSource(cfg.seed)), replaceSigma)
	return d, nil
}
