package demandrace_test

import (
	"testing"

	"demandrace"
	"demandrace/internal/detector"
	"demandrace/internal/experiments"
	"demandrace/internal/mem"
	"demandrace/internal/vclock"
)

// One benchmark per reproduced table/figure: each iteration regenerates the
// experiment's data exactly as cmd/experiments prints it. Run with
//
//	go test -bench=. -benchmem
//
// The per-op costs of the component benchmarks at the bottom are the
// FastTrack-vs-full-VC and cache-pipeline ablations DESIGN.md calls out.

func benchExperiment[T any](b *testing.B, fn func(experiments.Options) (T, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := fn(experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Continuous regenerates the continuous-analysis slowdown
// figure (E1).
func BenchmarkFig1Continuous(b *testing.B) { benchExperiment(b, experiments.Fig1) }

// BenchmarkFig2Sharing regenerates the sharing-fraction figure (E2).
func BenchmarkFig2Sharing(b *testing.B) { benchExperiment(b, experiments.Fig2) }

// BenchmarkFig3Hitm regenerates the HITM-fidelity microbenchmarks (E3).
func BenchmarkFig3Hitm(b *testing.B) { benchExperiment(b, experiments.Fig3) }

// BenchmarkFig4Demand regenerates the headline demand-vs-continuous
// comparison (E4).
func BenchmarkFig4Demand(b *testing.B) { benchExperiment(b, experiments.Fig4) }

// BenchmarkTab3Accuracy regenerates the injected-race accuracy table (E5).
func BenchmarkTab3Accuracy(b *testing.B) { benchExperiment(b, experiments.Tab3) }

// BenchmarkFig5Threads regenerates the thread-scaling figure (E6).
func BenchmarkFig5Threads(b *testing.B) { benchExperiment(b, experiments.Fig5) }

// BenchmarkFig6Ablation regenerates the policy/scope ablation (E7).
func BenchmarkFig6Ablation(b *testing.B) { benchExperiment(b, experiments.Fig6) }

// BenchmarkTab4Pmu regenerates the PMU sensitivity table (E8).
func BenchmarkTab4Pmu(b *testing.B) { benchExperiment(b, experiments.Tab4) }

// BenchmarkTab5Sampling regenerates the sampling-vs-demand frontier (E9).
func BenchmarkTab5Sampling(b *testing.B) { benchExperiment(b, experiments.Tab5) }

// ---- per-kernel pipeline benchmarks ----

func benchKernel(b *testing.B, name string, pol demandrace.Policy) {
	b.Helper()
	k, ok := demandrace.KernelByName(name)
	if !ok {
		b.Fatalf("kernel %q missing", name)
	}
	p := k.Build(demandrace.KernelConfig{Threads: 4, Scale: 1})
	cfg := demandrace.DefaultConfig().WithPolicy(pol)
	b.ReportMetric(float64(p.TotalOps()), "progops")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := demandrace.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSwaptionsContinuous measures the full pipeline on the
// best-case kernel under always-on analysis.
func BenchmarkRunSwaptionsContinuous(b *testing.B) {
	benchKernel(b, "swaptions", demandrace.Continuous)
}

// BenchmarkRunSwaptionsDemand measures the same kernel under the paper's
// policy.
func BenchmarkRunSwaptionsDemand(b *testing.B) {
	benchKernel(b, "swaptions", demandrace.HITMDemand)
}

// BenchmarkRunCannealDemand measures the worst-case (constant-sharing)
// kernel under the demand policy.
func BenchmarkRunCannealDemand(b *testing.B) {
	benchKernel(b, "canneal", demandrace.HITMDemand)
}

// ---- detector representation ablation (DESIGN.md choice #3) ----

func benchDetectorReads(b *testing.B, opt detector.Options) {
	b.Helper()
	d := detector.New(4, 1, 0, opt)
	addrs := make([]mem.Addr, 64)
	for i := range addrs {
		addrs[i] = mem.Addr(0x1000 + i*8)
	}
	// Lock-ordered accesses so no races are reported (reporting would
	// short-circuit the interesting paths).
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := vclock.TID(i % 4)
		d.OnLock(t, 0)
		d.OnRead(t, addrs[i%len(addrs)])
		d.OnWrite(t, addrs[i%len(addrs)])
		d.OnUnlock(t, 0)
	}
}

// BenchmarkDetectorFastTrack exercises the epoch-based shadow
// representation.
func BenchmarkDetectorFastTrack(b *testing.B) {
	benchDetectorReads(b, detector.Options{})
}

// BenchmarkDetectorFullVC exercises the DJIT+-style full-vector-clock
// representation; the gap against FastTrack is the paper's detector's
// reason for epochs.
func BenchmarkDetectorFullVC(b *testing.B) {
	benchDetectorReads(b, detector.Options{FullVC: true})
}

// BenchmarkDetectorSameEpochFastPath isolates FastTrack's O(1) common case.
func BenchmarkDetectorSameEpochFastPath(b *testing.B) {
	d := detector.New(2, 0, 0, detector.Options{})
	d.OnWrite(0, 0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnWrite(0, 0x1000)
	}
}

// ---- substrate microbenchmarks ----

func newHierarchy() *demandrace.CacheHierarchy {
	return demandrace.NewCache(demandrace.DefaultCacheConfig())
}

// BenchmarkCacheLocalHit measures the cache simulator's hot path.
func BenchmarkCacheLocalHit(b *testing.B) {
	h := newHierarchy()
	h.Access(0, 0x1000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, 0x1000, false)
	}
}

var sinkCache *demandrace.CacheHierarchy

// BenchmarkCacheNew measures building the default hierarchy, which every
// run pays before its first access.
func BenchmarkCacheNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkCache = newHierarchy()
	}
}

// BenchmarkCacheHITMPingPong measures the coherence slow path: alternating
// writers on one line.
func BenchmarkCacheHITMPingPong(b *testing.B) {
	h := newHierarchy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(demandrace.Context(i%2), 0x1000, true)
	}
}

// BenchmarkFig7Sweep regenerates the sharing-fraction characteristic curve
// (E10).
func BenchmarkFig7Sweep(b *testing.B) { benchExperiment(b, experiments.Fig7) }

// BenchmarkTab6Protocol regenerates the MESI-vs-MOESI ablation (E11).
func BenchmarkTab6Protocol(b *testing.B) { benchExperiment(b, experiments.Tab6) }
