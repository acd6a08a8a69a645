package experiments

import (
	"fmt"

	"demandrace/internal/demand"
	"demandrace/internal/runner"
	"demandrace/internal/stats"
	"demandrace/internal/workloads"
)

// Fig7 — the characteristic curve: demand-driven speedup as a continuous
// function of a program's sharing fraction, traced with the synthetic
// kernel generator. The benchmark suites sample this curve at fixed points;
// the sweep shows the whole mechanism in one figure — near-maximal speedup
// at zero sharing, graceful decay toward 1× as sharing saturates the
// analysis.
type Fig7Row struct {
	// ShareEvery is the generator knob (0 = never shares).
	ShareEvery int
	// SharingFrac is the measured HITM fraction of data accesses.
	SharingFrac float64
	// Continuous and Demand are the policies' slowdowns; Speedup their
	// ratio.
	Continuous float64
	Demand     float64
	Speedup    float64
	// Analyzed is the demand policy's analyzed fraction.
	Analyzed float64
}

// Fig7Result is the sweep.
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7 sweeps the sharing knob from "never" to "constantly"; every point
// on the curve runs concurrently.
func Fig7(o Options) (*Fig7Result, error) {
	o = o.normalized()
	knob := []int{0, 400, 200, 100, 50, 25, 12, 6, 3}
	if o.Quick {
		knob = []int{0, 100, 12, 3}
	}
	rows, err := fanOut(o, len(knob), func(i int) (Fig7Row, error) {
		shareEvery := knob[i]
		spec := workloads.SynthSpec{
			Threads:    o.Threads,
			Iters:      500 * o.Scale,
			ShareEvery: shareEvery,
		}
		p := workloads.Synth(spec)
		reps, err := runner.RunPolicies(p, runner.DefaultConfig(),
			demand.Continuous, demand.HITMDemand)
		if err != nil {
			return Fig7Row{}, fmt.Errorf("experiments: fig7 share=%d: %w", shareEvery, err)
		}
		// The sharing fraction describes the execution, so every lane
		// reports the same one.
		cont, dem := reps[0], reps[1]
		return Fig7Row{
			ShareEvery:  shareEvery,
			SharingFrac: cont.SharingFraction(),
			Continuous:  cont.Slowdown,
			Demand:      dem.Slowdown,
			Speedup:     cont.Slowdown / dem.Slowdown,
			Analyzed:    dem.Demand.AnalyzedFraction(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Rows: rows}, nil
}

// Table renders the result.
func (r *Fig7Result) Table() *stats.Table {
	tb := stats.NewTable("Fig.7 — demand-driven speedup vs sharing fraction (synthetic sweep)",
		"share every", "sharing %", "continuous (×)", "demand (×)", "speedup (×)", "analyzed frac")
	for _, row := range r.Rows {
		every := "never"
		if row.ShareEvery > 0 {
			every = fmt.Sprintf("%d", row.ShareEvery)
		}
		tb.AddRow(every,
			fmt.Sprintf("%.3f", 100*row.SharingFrac),
			fmt.Sprintf("%.2f", row.Continuous),
			fmt.Sprintf("%.2f", row.Demand),
			fmt.Sprintf("%.2f", row.Speedup),
			fmt.Sprintf("%.3f", row.Analyzed))
	}
	return tb
}
