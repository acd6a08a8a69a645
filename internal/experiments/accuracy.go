package experiments

import (
	"fmt"

	"demandrace/internal/cache"
	"demandrace/internal/demand"
	"demandrace/internal/mem"
	"demandrace/internal/racefuzz"
	"demandrace/internal/runner"
	"demandrace/internal/stats"
	"demandrace/internal/workloads"
)

// Fig3 — HITM-indicator fidelity: each microbenchmark isolates one
// behavior of the hardware sharing signal, including its blind spots.
type Fig3Row struct {
	Case     string
	MemOps   uint64
	HITM     uint64
	Samples  uint64
	Races    int
	Expected string
}

// Fig3Result is the set of fidelity measurements.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 runs the microbenchmarks, including the SMT-colocated and
// small-cache eviction variants.
func Fig3(o Options) (*Fig3Result, error) {
	o = o.normalized()

	type variant struct {
		name     string
		kernel   string
		cacheCfg cache.Config
		ctxNote  string
		expected string
	}
	def := cache.DefaultConfig()
	small := cache.Config{Cores: 2, SMT: 1, L1Sets: 4, L1Ways: 2}
	smt := cache.Config{Cores: 2, SMT: 2, L1Sets: 64, L1Ways: 8}
	pf := def
	pf.NextLinePrefetch = true
	variants := []variant{
		{"producer-consumer", "micro_producer_consumer", def, "",
			"HITM ≈ every handoff; no race (semaphore-ordered)"},
		{"write-write ping-pong", "micro_write_write", def, "",
			"HITM ≈ every handoff store"},
		{"read-only sharing", "micro_read_sharing", def, "",
			"≈0 HITM: clean lines do not fire the indicator"},
		{"false sharing", "micro_false_sharing", def, "",
			"HITM fires, detector confirms no race (distinct words)"},
		{"eviction churn (small L1)", "micro_eviction", small, "",
			"≈0 HITM despite real W→R sharing: the eviction blind spot"},
		{"SMT-colocated pair", "micro_producer_consumer", smt, "same-core contexts",
			"0 HITM: siblings share the L1, sharing is invisible"},
		{"streaming, no prefetch", "micro_streaming", def, "",
			"HITM on every handed-off line"},
		{"streaming, prefetcher on", "micro_streaming", pf, "",
			"≈half the HITMs visible: degree-1 prefetch drains alternate lines"},
		{"private control", "micro_private", def, "",
			"0 HITM, 0 races"},
	}
	rows, err := fanOut(o, len(variants), func(i int) (Fig3Row, error) {
		v := variants[i]
		k, ok := workloads.ByName(v.kernel)
		if !ok {
			return Fig3Row{}, fmt.Errorf("experiments: kernel %q missing", v.kernel)
		}
		threads := 2
		if v.kernel == "micro_private" || v.kernel == "micro_read_sharing" {
			threads = o.Threads
		}
		p := k.Build(workloads.Config{Threads: threads, Scale: o.Scale})
		cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
		cfg.Cache = v.cacheCfg
		r, err := runner.Run(p, cfg)
		if err != nil {
			return Fig3Row{}, fmt.Errorf("experiments: fig3 %s: %w", v.name, err)
		}
		return Fig3Row{
			Case:     v.name,
			MemOps:   r.MemOps,
			HITM:     r.SharedHITM,
			Samples:  r.PMU.Seen,
			Races:    len(r.RacyAddrs()),
			Expected: v.expected,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Rows: rows}, nil
}

// Table renders the result.
func (r *Fig3Result) Table() *stats.Table {
	tb := stats.NewTable("Fig.3 — HITM indicator fidelity microbenchmarks",
		"case", "mem ops", "HITM", "PMU events", "races", "expected behavior")
	for _, row := range r.Rows {
		tb.AddRow(row.Case,
			fmt.Sprintf("%d", row.MemOps),
			fmt.Sprintf("%d", row.HITM),
			fmt.Sprintf("%d", row.Samples),
			fmt.Sprintf("%d", row.Races),
			row.Expected)
	}
	return tb
}

// Tab3 — detection accuracy: synthetic races injected into clean kernels,
// scored as "found by the demand-driven detector / found by continuous
// analysis" on the identical interleaving. Repeated races (the common case
// in real programs) vs one-shot races (the documented blind spot).
type Tab3Row struct {
	Kernel string
	// Repeats is the injected accesses per side.
	Repeats int
	// Injected is the number of race sites across all seeds.
	Injected int
	// ContFound / DemandFound count sites reported by each policy.
	ContFound   int
	DemandFound int
}

// Recall is DemandFound / ContFound (1.0 when continuous found nothing).
func (r Tab3Row) Recall() float64 {
	if r.ContFound == 0 {
		return 1
	}
	return float64(r.DemandFound) / float64(r.ContFound)
}

// Tab3Result is the accuracy table.
type Tab3Result struct {
	Rows  []Tab3Row
	Seeds int
}

// Tab3 injects races into clean kernels across several seeds, with both
// repeated (4 accesses per side) and one-shot races.
func Tab3(o Options) (*Tab3Result, error) {
	return tab3(o, 4, 1)
}

// tab3 runs Tab.3's cells for the given repeats axis. Every (kernel,
// repeats, seed) cell is an independent run. The kernels go one at a time:
// each host is built once and its (repeats, seed) cells fan out over it
// (racefuzz.Inject copies the host and never writes it), so at most one
// host is live. Per-row tallies are summed in seed order.
func tab3(o Options, repeatsAxis ...int) (*Tab3Result, error) {
	o = o.normalized()
	seeds := o.quickSeeds(8)
	const perSeed = 3
	kernels := []string{"histogram", "blackscholes", "streamcluster", "swaptions"}
	if o.Quick {
		kernels = []string{"histogram", "streamcluster"}
	}

	type tally struct{ injected, cont, dem int }
	res := &Tab3Result{Seeds: seeds}
	for _, name := range kernels {
		p, err := buildProgram(name, o)
		if err != nil {
			return nil, err
		}
		cells, err := fanOut(o, len(repeatsAxis)*seeds, func(i int) (tally, error) {
			injected, injs, err := racefuzz.Inject(p, racefuzz.Config{
				Seed: int64(i % seeds), Count: perSeed, Repeats: repeatsAxis[i/seeds],
			})
			if err != nil {
				return tally{}, err
			}
			reps, err := runner.RunPolicies(injected, runner.DefaultConfig(),
				demand.Continuous, demand.HITMDemand)
			if err != nil {
				return tally{}, err
			}
			t := tally{injected: len(injs)}
			contAddrs := racyAddrSet(reps[0])
			demAddrs := racyAddrSet(reps[1])
			for _, in := range injs {
				if contAddrs[in.Addr] {
					t.cont++
				}
				if demAddrs[in.Addr] {
					t.dem++
				}
			}
			return t, nil
		})
		if err != nil {
			return nil, err
		}
		for ri, repeats := range repeatsAxis {
			r := Tab3Row{Kernel: name, Repeats: repeats}
			for _, t := range cells[ri*seeds : (ri+1)*seeds] {
				r.Injected += t.injected
				r.ContFound += t.cont
				r.DemandFound += t.dem
			}
			res.Rows = append(res.Rows, r)
		}
	}
	return res, nil
}

func racyAddrSet(r *runner.Report) map[mem.Addr]bool {
	m := map[mem.Addr]bool{}
	for _, rc := range r.Races {
		m[rc.Addr] = true
	}
	return m
}

// Table renders the result.
func (r *Tab3Result) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Tab.3 — detection accuracy on injected races (%d seeds)", r.Seeds),
		"kernel", "repeats/side", "injected", "continuous found", "demand found", "recall")
	for _, row := range r.Rows {
		tb.AddRow(row.Kernel,
			fmt.Sprintf("%d", row.Repeats),
			fmt.Sprintf("%d", row.Injected),
			fmt.Sprintf("%d", row.ContFound),
			fmt.Sprintf("%d", row.DemandFound),
			fmt.Sprintf("%.2f", row.Recall()))
	}
	return tb
}

// Fig6 — trigger and scope ablation: overhead/accuracy frontier across the
// policy space.
type Fig6Row struct {
	Kernel   string
	Policy   string
	Slowdown float64
	Analyzed float64
	Races    int
}

// Fig6Result is the ablation table.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 sweeps policies and demand scopes on representative kernels. Each
// kernel is one execution analyzed under every policy at once; the kernels
// fan out.
func Fig6(o Options) (*Fig6Result, error) {
	o = o.normalized()
	kernels := []string{"histogram", "streamcluster", "racy_mostly_clean"}
	if o.Quick {
		kernels = []string{"histogram", "racy_mostly_clean"}
	}
	type pv struct {
		label    string
		kind     demand.PolicyKind
		scope    demand.Scope
		adaptive bool
		syncTrig bool
	}
	policies := []pv{
		{"sync-only", demand.SyncOnly, demand.ScopeGlobal, false, false},
		{"watch/global", demand.WatchDemand, demand.ScopeGlobal, false, false},
		{"page/global", demand.PageDemand, demand.ScopeGlobal, false, false},
		{"hitm/self", demand.HITMDemand, demand.ScopeSelf, false, false},
		{"hitm/pair", demand.HITMDemand, demand.ScopePair, false, false},
		{"hitm/global", demand.HITMDemand, demand.ScopeGlobal, false, false},
		{"hitm/adaptive", demand.HITMDemand, demand.ScopeGlobal, true, false},
		{"hitm+sync", demand.HITMDemand, demand.ScopeGlobal, false, true},
		{"hybrid/global", demand.Hybrid, demand.ScopeGlobal, false, false},
		{"continuous", demand.Continuous, demand.ScopeGlobal, false, false},
	}
	perKernel, err := fanOut(o, len(kernels), func(ki int) ([]Fig6Row, error) {
		p, err := buildProgram(kernels[ki], o)
		if err != nil {
			return nil, err
		}
		cfgs := make([]runner.Config, len(policies))
		for i, pol := range policies {
			cfg := runner.DefaultConfig().WithPolicy(pol.kind)
			cfg.Demand.Scope = pol.scope
			cfg.Demand.Adaptive = pol.adaptive
			cfg.Demand.SyncTrigger = pol.syncTrig
			cfgs[i] = cfg
		}
		reps, err := runner.RunConfigs(p, cfgs...)
		if err != nil {
			return nil, err
		}
		rows := make([]Fig6Row, len(policies))
		for i, r := range reps {
			rows[i] = Fig6Row{
				Kernel:   kernels[ki],
				Policy:   policies[i].label,
				Slowdown: r.Slowdown,
				Analyzed: r.Demand.AnalyzedFraction(),
				Races:    len(r.RacyAddrs()),
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for _, kr := range perKernel {
		rows = append(rows, kr...)
	}
	return &Fig6Result{Rows: rows}, nil
}

// Table renders the result.
func (r *Fig6Result) Table() *stats.Table {
	tb := stats.NewTable("Fig.6 — trigger policy and scope ablation",
		"kernel", "policy", "slowdown (×)", "analyzed frac", "racy words")
	for _, row := range r.Rows {
		tb.AddRowf(row.Kernel, row.Policy, row.Slowdown, row.Analyzed, row.Races)
	}
	return tb
}

// Tab4 — PMU parameter sensitivity: sample-after value and interrupt skid
// trade detection recall against interrupt overhead.
type Tab4Row struct {
	SampleAfter uint64
	Skid        int
	// Recall is injected-race recall vs continuous across seeds.
	Recall float64
	// Slowdown is the mean demand-policy slowdown.
	Slowdown float64
	// Interrupts is the mean number of delivered PMU interrupts.
	Interrupts float64
}

// Tab4Result is the sensitivity table.
type Tab4Result struct {
	Rows  []Tab4Row
	Seeds int
}

// Tab4 sweeps SAV × skid on injected races over a clean host kernel. Each
// seed is one execution analyzed by every (SAV, skid) setting at once, and
// the seeds fan out over one host built before them (racefuzz.Inject
// copies it); per-row means are summed in seed order so the floating-point
// totals match a serial loop exactly.
func Tab4(o Options) (*Tab4Result, error) {
	o = o.normalized()
	seeds := o.quickSeeds(6)
	const perSeed = 3
	host := "histogram"
	// The sweep tops out at 8 because these kernels produce tens of HITM
	// events, not the millions of a native run; the paper's absolute SAV
	// values scale with its programs the same way.
	savs := []uint64{1, 2, 4, 8}
	skids := []int{0, 20}

	type sample struct {
		cont, dem  int
		slow, intr float64
	}
	// One execution per seed: a hitm-demand lane per (SAV, skid) row, plus
	// one continuous lane. Continuous analysis never reads the PMU, so the
	// PMU programming does not change its reports, and one lane serves as
	// every row's reference.
	nRows := len(savs) * len(skids)
	p, err := buildProgram(host, o)
	if err != nil {
		return nil, err
	}
	cells, err := fanOut(o, seeds, func(seed int) ([]sample, error) {
		injected, injs, err := racefuzz.Inject(p, racefuzz.Config{
			Seed: int64(seed), Count: perSeed, Repeats: 6,
		})
		if err != nil {
			return nil, err
		}
		cfgs := make([]runner.Config, 0, nRows+1)
		for row := 0; row < nRows; row++ {
			cfg := runner.DefaultConfig().WithPolicy(demand.HITMDemand)
			cfg.PMU.SampleAfter = savs[row/len(skids)]
			cfg.PMU.Skid = skids[row%len(skids)]
			cfgs = append(cfgs, cfg)
		}
		cfgs = append(cfgs, runner.DefaultConfig().WithPolicy(demand.Continuous))
		reps, err := runner.RunConfigs(injected, cfgs...)
		if err != nil {
			return nil, err
		}
		contAddrs := racyAddrSet(reps[nRows])
		contFound := 0
		for _, in := range injs {
			if contAddrs[in.Addr] {
				contFound++
			}
		}
		out := make([]sample, nRows)
		for row, r := range reps[:nRows] {
			s := sample{cont: contFound, slow: r.Slowdown, intr: float64(r.PMU.Delivered)}
			demAddrs := racyAddrSet(r)
			for _, in := range injs {
				if demAddrs[in.Addr] {
					s.dem++
				}
			}
			out[row] = s
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Tab4Result{Seeds: seeds}
	for row := 0; row < nRows; row++ {
		r := Tab4Row{SampleAfter: savs[row/len(skids)], Skid: skids[row%len(skids)]}
		contFound, demFound := 0, 0
		var slowSum, intrSum float64
		for seed := 0; seed < seeds; seed++ {
			s := cells[seed][row]
			contFound += s.cont
			demFound += s.dem
			slowSum += s.slow
			intrSum += s.intr
		}
		if contFound > 0 {
			r.Recall = float64(demFound) / float64(contFound)
		} else {
			r.Recall = 1
		}
		r.Slowdown = slowSum / float64(seeds)
		r.Interrupts = intrSum / float64(seeds)
		res.Rows = append(res.Rows, r)
	}
	return res, nil
}

// Table renders the result.
func (r *Tab4Result) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Tab.4 — PMU sensitivity: sample-after value × skid (%d seeds)", r.Seeds),
		"sample-after", "skid", "recall", "mean slowdown (×)", "mean interrupts")
	for _, row := range r.Rows {
		tb.AddRow(
			fmt.Sprintf("%d", row.SampleAfter),
			fmt.Sprintf("%d", row.Skid),
			fmt.Sprintf("%.2f", row.Recall),
			fmt.Sprintf("%.2f", row.Slowdown),
			fmt.Sprintf("%.1f", row.Interrupts))
	}
	return tb
}
