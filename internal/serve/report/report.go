// Package report defines the machine-readable result payload shared by the
// mclgd serving layer and the mclg CLI's -json mode. Both surfaces emit the
// exact same schema, so a sweep harness can switch between "solve locally"
// and "submit to a daemon" without changing its result parser.
package report

import (
	"time"

	"mclg/internal/audit"
	"mclg/internal/design"
	"mclg/internal/metrics"
	"mclg/internal/regress"
	"mclg/internal/window"
)

// Placement carries the final cell state as parallel arrays indexed by cell
// ID. It is bit-exact: two reports with equal PosHash carry byte-identical
// placements.
type Placement struct {
	X       []float64 `json:"x"`
	Y       []float64 `json:"y"`
	Flipped []bool    `json:"flipped"`
}

// Report is the result of one legalization run.
type Report struct {
	Design        string `json:"design"`
	Cells         int    `json:"cells"`
	MultiRowCells int    `json:"multi_row_cells"`
	Method        string `json:"method"`

	// Rung and Attempts are set only for resilient runs: the cascade rung
	// that produced the accepted placement and how many rungs ran.
	Rung     string `json:"rung,omitempty"`
	Attempts int    `json:"attempts,omitempty"`

	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	Legal      bool `json:"legal"`
	Illegal    int  `json:"illegal"`
	Unplaced   int  `json:"unplaced"`

	DisplacementSites float64 `json:"displacement_sites"`
	MaxDispSites      float64 `json:"max_disp_sites"`
	AvgDispSites      float64 `json:"avg_disp_sites"`
	HPWL              float64 `json:"hpwl"`
	DeltaHPWL         float64 `json:"delta_hpwl"`

	BuildMS  float64 `json:"build_ms,omitempty"`
	SolveMS  float64 `json:"solve_ms,omitempty"`
	TetrisMS float64 `json:"tetris_ms,omitempty"`
	// WallMS is the run's wall time; on a served cache hit, the hit
	// request's own handler latency instead (see docs/serving.md).
	WallMS float64 `json:"wall_ms"`

	// PosHash is the FNV-1a placement digest from internal/regress: equal
	// hashes mean bit-identical placements (the determinism contract).
	PosHash string `json:"pos_hash"`

	// Cache reports how a serving layer produced this result: "hit",
	// "miss", or empty for a local run.
	Cache string `json:"cache,omitempty"`

	// Warm reports that the MMSIM was seeded from a previous solve of the
	// same topology (a warm-store near-match). Warm affects only the
	// iteration count, never the placement: PosHash is identical to the
	// cold solve's.
	Warm bool `json:"warm,omitempty"`

	// Windows carries the fault-containment trace of a windowed run: how
	// the job was partitioned and how many windows were resumed from the
	// journal, retried, hedged, or degraded.
	Windows *WindowStats `json:"windows,omitempty"`

	// Certificate is the sealed audit certificate, present when the run was
	// audited (-audit locally, "audit": true on the wire, or a daemon
	// running with -audit). Its PosHash is the audit re-run's placement
	// digest and must equal the report's own PosHash.
	Certificate *audit.Certificate `json:"certificate,omitempty"`

	Placement *Placement `json:"placement,omitempty"`
}

// WindowStats is the windowed-run supervision trace. Total == Solved +
// Resumed on success; Resumed counts windows replayed from the write-ahead
// journal instead of being re-solved.
type WindowStats struct {
	Total        int `json:"total"`
	Solved       int `json:"solved"`
	Resumed      int `json:"resumed,omitempty"`
	Retries      int `json:"retries,omitempty"`
	Panics       int `json:"panics,omitempty"`
	HedgesIssued int `json:"hedges_issued,omitempty"`
	HedgesWon    int `json:"hedges_won,omitempty"`
	Degraded     int `json:"degraded,omitempty"`
	// Exact carries the exact refinement post-pass trace, present when the
	// run asked for it ("exact": K on the wire, -exact locally).
	Exact *ExactStats `json:"exact,omitempty"`
}

// ExactStats is the exact refinement post-pass trace: how many of the
// worst-displaced windows were re-solved with the branch-and-bound legalizer,
// how many strictly improved or were proven optimal, and the per-window
// measured optimality gaps.
type ExactStats struct {
	Selected int         `json:"selected"`
	Improved int         `json:"improved"`
	Proven   int         `json:"proven"`
	Skipped  int         `json:"skipped,omitempty"`
	MaxGap   float64     `json:"max_gap"`
	Gaps     []WindowGap `json:"gaps,omitempty"`
}

// WindowGap is one refined window's measured outcome. Gap is the normalized
// distance (cost − lower bound)/cost; Proven marks gaps that are exact (the
// search space was exhausted) rather than budget-truncated.
type WindowGap struct {
	Window        int     `json:"window"`
	Cells         int     `json:"cells"`
	Gap           float64 `json:"gap"`
	Proven        bool    `json:"proven"`
	Improved      bool    `json:"improved"`
	MaxDispBefore float64 `json:"max_disp_before"`
	MaxDispAfter  float64 `json:"max_disp_after"`
}

// WindowsFromStats converts a windowed run's supervision stats into the wire
// schema, exact refinement trace included. Both result surfaces (the mclgd
// serving layer and the mclg CLI's local -windows path) go through here so
// the schemas cannot drift.
func WindowsFromStats(st *window.Stats) *WindowStats {
	ws := &WindowStats{
		Total:        st.Windows,
		Solved:       st.Solved,
		Resumed:      st.Resumed,
		Retries:      st.Retries,
		Panics:       st.Panics,
		HedgesIssued: st.HedgesIssued,
		HedgesWon:    st.HedgesWon,
		Degraded:     st.Degraded,
	}
	if ex := st.Exact; ex != nil {
		res := &ExactStats{
			Selected: ex.Selected,
			Improved: ex.Improved,
			Proven:   ex.Proven,
			Skipped:  ex.Skipped,
			MaxGap:   ex.MaxGap,
		}
		for _, g := range ex.Gaps {
			res.Gaps = append(res.Gaps, WindowGap{
				Window:        g.Window,
				Cells:         g.Cells,
				Gap:           g.Gap,
				Proven:        g.Proven,
				Improved:      g.Improved,
				MaxDispBefore: g.MaxDispBefore,
				MaxDispAfter:  g.MaxDispAfter,
			})
		}
		ws.Exact = res
	}
	return ws
}

// FromDesign measures the design's current placement into a Report. Solver
// statistics (iterations, stage times, rung) are layered on by the caller.
func FromDesign(d *design.Design, method string, wall time.Duration) *Report {
	disp := metrics.MeasureDisplacement(d)
	multi := 0
	for _, c := range d.Cells {
		if c.RowSpan > 1 {
			multi++
		}
	}
	avg := 0.0
	if len(d.Cells) > 0 {
		avg = disp.TotalSites / float64(len(d.Cells))
	}
	return &Report{
		Design:            d.Name,
		Cells:             len(d.Cells),
		MultiRowCells:     multi,
		Method:            method,
		Legal:             design.CheckLegal(d).Legal(),
		DisplacementSites: disp.TotalSites,
		MaxDispSites:      disp.MaxSites,
		AvgDispSites:      avg,
		HPWL:              metrics.HPWL(d),
		DeltaHPWL:         metrics.DeltaHPWL(d),
		WallMS:            float64(wall) / float64(time.Millisecond),
		PosHash:           regress.PositionHash(d),
	}
}

// CapturePlacement snapshots the design's cell state into the report.
func (r *Report) CapturePlacement(d *design.Design) {
	p := &Placement{
		X:       make([]float64, len(d.Cells)),
		Y:       make([]float64, len(d.Cells)),
		Flipped: make([]bool, len(d.Cells)),
	}
	for i, c := range d.Cells {
		p.X[i], p.Y[i], p.Flipped[i] = c.X, c.Y, c.Flipped
	}
	r.Placement = p
}

// ApplyPlacement writes a report's placement back onto a design with the
// same cell count (e.g. the client's locally loaded copy). It returns false
// when the report carries no placement or the sizes disagree.
func (r *Report) ApplyPlacement(d *design.Design) bool {
	p := r.Placement
	if p == nil || len(p.X) != len(d.Cells) || len(p.Y) != len(d.Cells) || len(p.Flipped) != len(d.Cells) {
		return false
	}
	for i, c := range d.Cells {
		c.X, c.Y, c.Flipped = p.X[i], p.Y[i], p.Flipped[i]
	}
	return true
}
