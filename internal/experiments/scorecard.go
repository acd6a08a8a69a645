package experiments

import (
	"fmt"

	"demandrace/internal/stats"
)

// Scorecard computes the headline paper-vs-measured table from the
// underlying experiments — the summary EXPERIMENTS.md leads with. It reruns
// Fig.4 (continuous cost, suite speedups and best program) and Tab.3
// (repeated-race recall) and condenses them to the abstract's claims.
type ScorecardResult struct {
	ContinuousMin, ContinuousMax float64
	PhoenixGeomean               float64
	ParsecGeomean                float64
	Best                         string
	BestSpeedup                  float64
	RepeatedRecall               float64
}

// Scorecard runs the two source experiments and aggregates. They run
// back-to-back (each fans its own runs out across o's engine), so the
// condensed numbers are exactly the ones the underlying tables report. The
// continuous-analysis range comes from Fig.4's continuous column, which is
// the same default-config continuous run Fig.1 reports per kernel.
func Scorecard(o Options) (*ScorecardResult, error) {
	o = o.normalized()
	f4, err := Fig4(o)
	if err != nil {
		return nil, err
	}
	t3, err := Tab3(o)
	if err != nil {
		return nil, err
	}
	res := &ScorecardResult{
		ContinuousMin:  stats.Min(f4.Continuous),
		ContinuousMax:  stats.Max(f4.Continuous),
		PhoenixGeomean: f4.GeomeanSpeedup["phoenix"],
		ParsecGeomean:  f4.GeomeanSpeedup["parsec"],
		Best:           f4.Best,
		BestSpeedup:    f4.BestSpeedup,
	}
	var cont, dem int
	for _, row := range t3.Rows {
		if row.Repeats > 1 {
			cont += row.ContFound
			dem += row.DemandFound
		}
	}
	if cont > 0 {
		res.RepeatedRecall = float64(dem) / float64(cont)
	}
	return res, nil
}

// Table renders the paper-vs-measured scorecard.
func (r *ScorecardResult) Table() *stats.Table {
	tb := stats.NewTable("Scorecard — paper (abstract) vs measured",
		"quantity", "paper", "measured")
	tb.AddRow("continuous-analysis slowdown", "10–300×",
		fmt.Sprintf("%.0f–%.0f× per kernel", r.ContinuousMin, r.ContinuousMax))
	tb.AddRow("Phoenix-suite geomean speedup", "≈10×", fmt.Sprintf("%.1f×", r.PhoenixGeomean))
	tb.AddRow("PARSEC-suite geomean speedup", "≈3×", fmt.Sprintf("%.1f×", r.ParsecGeomean))
	tb.AddRow("best single program", "51×",
		fmt.Sprintf("%.1f× (%s)", r.BestSpeedup, r.Best))
	tb.AddRow("repeated-race recall", `"without a large loss"`,
		fmt.Sprintf("%.2f vs continuous oracle", r.RepeatedRecall))
	return tb
}
