package experiments

import (
	"fmt"

	"demandrace/internal/demand"
	"demandrace/internal/racefuzz"
	"demandrace/internal/runner"
	"demandrace/internal/stats"
)

// Tab5 — the software-only alternative: blind random sampling
// (LiteRace/Pacer-style) vs. the hardware-triggered demand policy. This is
// the comparison the paper's related-work positioning makes: sampling needs
// no hardware, but catching a race requires sampling *both* accesses of a
// pair, so at any overhead a program can afford, hardware-triggered
// analysis finds more.
type Tab5Row struct {
	// Policy labels the row ("sampling 5%", "hitm-demand", "continuous").
	Policy string
	// Recall is injected-race recall against the continuous oracle.
	Recall float64
	// Slowdown is the mean slowdown across seeds.
	Slowdown float64
	// Analyzed is the mean fraction of data accesses analyzed.
	Analyzed float64
}

// Tab5Result is the sampling-vs-demand frontier.
type Tab5Result struct {
	Rows  []Tab5Row
	Seeds int
}

// Tab5 scores each policy on the same injected-race workloads. Each seed is
// one execution analyzed by every policy at once, and the seeds fan out;
// per-policy means are summed in seed order for bit-stable floating-point
// totals.
func Tab5(o Options) (*Tab5Result, error) {
	o = o.normalized()
	seeds := o.quickSeeds(8)
	const perSeed = 3
	host := "histogram"

	type policy struct {
		label string
		cfg   demand.Config
	}
	policies := []policy{
		{"sampling 1%", demand.Config{Kind: demand.Sampling, SampleRate: 0.01}},
		{"sampling 5%", demand.Config{Kind: demand.Sampling, SampleRate: 0.05}},
		{"sampling 10%", demand.Config{Kind: demand.Sampling, SampleRate: 0.10}},
		{"sampling 25%", demand.Config{Kind: demand.Sampling, SampleRate: 0.25}},
		{"page-demand", demand.Config{Kind: demand.PageDemand}},
		{"hitm-demand", demand.DefaultConfig()},
		{"continuous", demand.Config{Kind: demand.Continuous}},
	}

	type sample struct {
		contFound, found int
		slow, analyzed   float64
	}
	// One execution per seed: every policy is a lane, plus a continuous
	// oracle lane at the default configuration. The seeds share one host;
	// racefuzz.Inject copies it.
	p, err := buildProgram(host, o)
	if err != nil {
		return nil, err
	}
	cells, err := fanOut(o, seeds, func(seed int) ([]sample, error) {
		injected, injs, err := racefuzz.Inject(p, racefuzz.Config{
			Seed: int64(seed), Count: perSeed, Repeats: 4,
		})
		if err != nil {
			return nil, err
		}
		cfgs := make([]runner.Config, 0, len(policies)+1)
		for _, pol := range policies {
			cfg := runner.DefaultConfig()
			cfg.Demand = pol.cfg
			cfg.Demand.Seed = int64(seed)
			cfgs = append(cfgs, cfg)
		}
		cfgs = append(cfgs, runner.DefaultConfig().WithPolicy(demand.Continuous))
		reps, err := runner.RunConfigs(injected, cfgs...)
		if err != nil {
			return nil, err
		}
		oracleAddrs := racyAddrSet(reps[len(policies)])
		out := make([]sample, len(policies))
		for pi, r := range reps[:len(policies)] {
			s := sample{slow: r.Slowdown, analyzed: r.Demand.AnalyzedFraction()}
			gotAddrs := racyAddrSet(r)
			for _, in := range injs {
				if oracleAddrs[in.Addr] {
					s.contFound++
					if gotAddrs[in.Addr] {
						s.found++
					}
				}
			}
			out[pi] = s
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Tab5Result{Seeds: seeds}
	for pi, pol := range policies {
		var contFound, found int
		var slowSum, analyzedSum float64
		for seed := 0; seed < seeds; seed++ {
			s := cells[seed][pi]
			contFound += s.contFound
			found += s.found
			slowSum += s.slow
			analyzedSum += s.analyzed
		}
		row := Tab5Row{
			Policy:   pol.label,
			Slowdown: slowSum / float64(seeds),
			Analyzed: analyzedSum / float64(seeds),
		}
		if contFound > 0 {
			row.Recall = float64(found) / float64(contFound)
		} else {
			row.Recall = 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r *Tab5Result) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Tab.5 — blind sampling vs hardware-triggered demand (%d seeds)", r.Seeds),
		"policy", "recall", "mean slowdown (×)", "analyzed frac")
	for _, row := range r.Rows {
		tb.AddRow(row.Policy,
			fmt.Sprintf("%.2f", row.Recall),
			fmt.Sprintf("%.2f", row.Slowdown),
			fmt.Sprintf("%.3f", row.Analyzed))
	}
	return tb
}
