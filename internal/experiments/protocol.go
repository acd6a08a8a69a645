package experiments

import (
	"fmt"

	"demandrace/internal/cache"
	"demandrace/internal/demand"
	"demandrace/internal/runner"
	"demandrace/internal/stats"
)

// Tab6 — coherence-protocol ablation: the paper measured Intel MESI(F)
// parts, where a remote read of a Modified line demotes it (writing back),
// so each producer write is visible to the HITM indicator at most once. An
// AMD-style MOESI machine keeps the dirty line Owned in the producer's
// cache and serves every later consumer with a dirty intervention — the
// indicator sees strictly more sharing, which changes both the demand
// policy's trigger rate and, on multi-consumer patterns, its recall.
type Tab6Row struct {
	Kernel   string
	Protocol string
	// HITM is the execution's count of data accesses served by a remote
	// dirty line; it is the same under every policy.
	HITM uint64
	// Demand and Continuous are the policies' slowdowns.
	Demand     float64
	Continuous float64
	// Races is the demand policy's distinct racy-word count.
	Races int
}

// Tab6Result is the protocol comparison.
type Tab6Result struct {
	Rows []Tab6Row
}

// Tab6 runs multi-consumer and suite kernels under both protocols; the
// (kernel × protocol) grid runs as one fan-out.
func Tab6(o Options) (*Tab6Result, error) {
	o = o.normalized()
	kernels := []string{"micro_read_sharing", "x264", "streamcluster", "racy_mostly_clean"}
	if o.Quick {
		kernels = []string{"micro_read_sharing", "racy_mostly_clean"}
	}
	protos := []cache.Protocol{cache.MESI, cache.MOESI}
	rows, err := fanOut(o, len(kernels)*len(protos), func(i int) (Tab6Row, error) {
		name, proto := kernels[i/len(protos)], protos[i%len(protos)]
		p, err := buildProgram(name, o)
		if err != nil {
			return Tab6Row{}, err
		}
		cfg := runner.DefaultConfig()
		cfg.Cache.Protocol = proto
		reps, err := runner.RunPolicies(p, cfg, demand.Continuous, demand.HITMDemand)
		if err != nil {
			return Tab6Row{}, fmt.Errorf("experiments: tab6 %s/%v: %w", name, proto, err)
		}
		cont, dem := reps[0], reps[1]
		return Tab6Row{
			Kernel:     name,
			Protocol:   proto.String(),
			HITM:       cont.SharedHITM,
			Continuous: cont.Slowdown,
			Demand:     dem.Slowdown,
			Races:      len(dem.RacyAddrs()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Tab6Result{Rows: rows}, nil
}

// Table renders the result.
func (r *Tab6Result) Table() *stats.Table {
	tb := stats.NewTable("Tab.6 — coherence protocol ablation (MESI vs MOESI)",
		"kernel", "protocol", "HITM events", "continuous (×)", "demand (×)", "racy words")
	for _, row := range r.Rows {
		tb.AddRow(row.Kernel, row.Protocol,
			fmt.Sprintf("%d", row.HITM),
			fmt.Sprintf("%.2f", row.Continuous),
			fmt.Sprintf("%.2f", row.Demand),
			fmt.Sprintf("%d", row.Races))
	}
	return tb
}
