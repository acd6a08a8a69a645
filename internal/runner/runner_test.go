package runner

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"demandrace/internal/cache"
	"demandrace/internal/demand"
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/sched"
	"demandrace/internal/vclock"
	"demandrace/internal/workloads"
)

// racyLoop builds a producer/consumer pair that races on one word every
// iteration: the repeated-sharing pattern demand-driven analysis relies on.
func racyLoop(iters int) *program.Program {
	b := program.NewBuilder("racy-loop")
	x := b.Space().AllocLine(8)
	t0, t1 := b.Thread(), b.Thread()
	for i := 0; i < iters; i++ {
		t0.Store(x).Compute(5)
		t1.Load(x).Compute(5)
	}
	return b.MustBuild()
}

// cleanParallel builds a fully independent data-parallel kernel: each
// thread owns its lines, zero sharing.
func cleanParallel(threads, iters int) *program.Program {
	b := program.NewBuilder("clean-parallel")
	bases := make([]mem.Addr, threads)
	for i := range bases {
		bases[i] = b.Space().AllocArray(uint64(iters), 8)
	}
	for i := 0; i < threads; i++ {
		tb := b.Thread()
		for j := 0; j < iters; j++ {
			a := bases[i] + mem.Addr(j*8)
			tb.Load(a).Store(a).Compute(2)
		}
	}
	return b.MustBuild()
}

// lockedCounter builds a properly locked shared counter: sharing without
// races.
func lockedCounter(threads, iters int) *program.Program {
	b := program.NewBuilder("locked-counter")
	c := b.Space().AllocLine(8)
	mu := b.Mutex()
	for i := 0; i < threads; i++ {
		tb := b.Thread()
		for j := 0; j < iters; j++ {
			tb.Lock(mu).Load(c).Store(c).Unlock(mu).Compute(10)
		}
	}
	return b.MustBuild()
}

func mustRun(t *testing.T, p *program.Program, cfg Config) *Report {
	t.Helper()
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOffPolicyIsNativeSpeed(t *testing.T) {
	r := mustRun(t, racyLoop(50), DefaultConfig().WithPolicy(demand.Off))
	if r.Slowdown != 1.0 {
		t.Errorf("Off slowdown = %g", r.Slowdown)
	}
	if len(r.Races) != 0 {
		t.Errorf("Off policy reported races: %v", r.Races)
	}
}

func TestContinuousFindsRace(t *testing.T) {
	r := mustRun(t, racyLoop(10), DefaultConfig().WithPolicy(demand.Continuous))
	if len(r.Races) == 0 {
		t.Fatal("continuous analysis missed the race")
	}
	if r.Slowdown <= 1.0 {
		t.Errorf("continuous slowdown = %g, want > 1", r.Slowdown)
	}
}

func TestDemandFindsRepeatedRace(t *testing.T) {
	r := mustRun(t, racyLoop(50), DefaultConfig().WithPolicy(demand.HITMDemand))
	if len(r.Races) == 0 {
		t.Fatal("demand-driven analysis missed a repeated race")
	}
	if r.Demand.Samples == 0 {
		t.Error("no PMU samples despite repeated sharing")
	}
	if r.Demand.EnableTransitions == 0 {
		t.Error("no enable transitions")
	}
}

func TestDemandMissesOneShotFirstRace(t *testing.T) {
	// A single racy pair with no repetition: the HITM fires *on* the racy
	// read, too late to have analyzed the write. This pins the paper's
	// documented accuracy loss.
	b := program.NewBuilder("one-shot")
	x := b.Space().AllocLine(8)
	b.Thread().Store(x).Compute(5)
	b.Thread().Compute(3).Load(x)
	p := b.MustBuild()
	cont := mustRun(t, p, DefaultConfig().WithPolicy(demand.Continuous))
	dem := mustRun(t, p, DefaultConfig().WithPolicy(demand.HITMDemand))
	if len(cont.Races) != 1 {
		t.Fatalf("continuous races = %v", cont.Races)
	}
	if len(dem.Races) != 0 {
		t.Errorf("demand-driven should miss the one-shot race, got %v", dem.Races)
	}
}

func TestCleanParallelNoRacesNoSharing(t *testing.T) {
	for _, k := range []demand.PolicyKind{demand.Continuous, demand.HITMDemand} {
		r := mustRun(t, cleanParallel(4, 100), DefaultConfig().WithPolicy(k))
		if len(r.Races) != 0 {
			t.Errorf("%v: false positive on clean kernel: %v", k, r.Races)
		}
		if r.SharedHITM != 0 {
			t.Errorf("%v: HITM on independent data: %d", k, r.SharedHITM)
		}
	}
}

func TestLockedCounterNoRaces(t *testing.T) {
	for _, k := range []demand.PolicyKind{demand.Continuous, demand.HITMDemand, demand.Hybrid} {
		r := mustRun(t, lockedCounter(4, 30), DefaultConfig().WithPolicy(k))
		if len(r.Races) != 0 {
			t.Errorf("%v: false positive on locked counter: %v", k, r.Races)
		}
	}
}

func TestSlowdownOrderingAcrossPolicies(t *testing.T) {
	// On a low-sharing kernel: Off ≤ SyncOnly ≤ HITMDemand ≪ Continuous.
	p := cleanParallel(4, 200)
	cfg := DefaultConfig()
	reps, err := RunPolicies(p, cfg, demand.Off, demand.SyncOnly, demand.HITMDemand, demand.Continuous)
	if err != nil {
		t.Fatal(err)
	}
	off, sync, dem, cont := reps[0], reps[1], reps[2], reps[3]
	if !(off.Slowdown <= sync.Slowdown && sync.Slowdown <= dem.Slowdown && dem.Slowdown < cont.Slowdown) {
		t.Errorf("slowdowns: off=%.2f sync=%.2f demand=%.2f cont=%.2f",
			off.Slowdown, sync.Slowdown, dem.Slowdown, cont.Slowdown)
	}
	// The headline effect: demand-driven is several times faster than
	// continuous on a no-sharing kernel.
	if cont.Slowdown/dem.Slowdown < 3 {
		t.Errorf("speedup = %.2f, want ≥ 3", cont.Slowdown/dem.Slowdown)
	}
}

func TestDemandRacySubsetOfContinuous(t *testing.T) {
	// Demand-driven analysis must never report a race continuous analysis
	// does not (it sees a subset of accesses on the same interleaving).
	progs := []*program.Program{racyLoop(20), lockedCounter(3, 10), cleanParallel(2, 50)}
	for _, p := range progs {
		cont := mustRun(t, p, DefaultConfig().WithPolicy(demand.Continuous))
		dem := mustRun(t, p, DefaultConfig().WithPolicy(demand.HITMDemand))
		contAddrs := cont.RacyAddrs()
		for a := range dem.RacyAddrs() {
			if !contAddrs[a] {
				t.Errorf("%s: demand reported %s that continuous did not", p.Name, a)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := racyLoop(30)
	cfg := DefaultConfig().WithPolicy(demand.HITMDemand)
	a := mustRun(t, p, cfg)
	b := mustRun(t, p, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("identical runs produced different reports")
	}
}

func TestSharingFraction(t *testing.T) {
	r := mustRun(t, racyLoop(50), DefaultConfig().WithPolicy(demand.Off))
	if r.SharingFraction() <= 0 {
		t.Error("racy loop should show nonzero sharing")
	}
	r2 := mustRun(t, cleanParallel(4, 50), DefaultConfig().WithPolicy(demand.Off))
	if r2.SharingFraction() != 0 {
		t.Errorf("clean kernel sharing = %g", r2.SharingFraction())
	}
}

func TestLocksetEngineRuns(t *testing.T) {
	cfg := DefaultConfig().WithPolicy(demand.Continuous)
	cfg.Lockset = true
	r := mustRun(t, racyLoop(10), cfg)
	if len(r.LocksetReports) == 0 {
		t.Error("lockset engine found nothing on a racy loop")
	}
	r2 := mustRun(t, lockedCounter(2, 10), cfg)
	if len(r2.LocksetReports) != 0 {
		t.Errorf("lockset false positive on locked counter: %v", r2.LocksetReports)
	}
}

func TestModeSwitchesCharged(t *testing.T) {
	p := racyLoop(50)
	cfg := DefaultConfig().WithPolicy(demand.HITMDemand)
	r := mustRun(t, p, cfg)
	if r.Demand.EnableTransitions == 0 {
		t.Skip("no transitions to charge")
	}
	// Tool cycles must exceed native by at least the transition charges.
	minOverhead := (r.Demand.EnableTransitions + r.Demand.DisableTransitions) * cfg.Cost.ModeSwitch
	if r.ToolCycles-r.NativeCycles < minOverhead {
		t.Errorf("tool-native = %d, want ≥ %d", r.ToolCycles-r.NativeCycles, minOverhead)
	}
}

func TestAtomicSyncThroughCache(t *testing.T) {
	// Flag synchronization: producer writes data then releases a flag;
	// consumer spins (modeled as one acquire) then reads. No race, but the
	// flag itself generates HITM traffic.
	b := program.NewBuilder("flag-sync")
	data := b.Space().AllocLine(8)
	flag := b.Space().AllocLine(8)
	b.Thread().Store(data).AtomicStore(flag)
	b.Thread().Compute(50).AtomicLoad(flag).Load(data)
	p := b.MustBuild()
	r := mustRun(t, p, DefaultConfig().WithPolicy(demand.Continuous))
	if len(r.Races) != 0 {
		t.Errorf("flag-synchronized program reported races: %v", r.Races)
	}
	if r.SharedHITM == 0 {
		t.Error("flag handoff should produce HITM traffic")
	}
}

func TestRunPoliciesPreservesOrder(t *testing.T) {
	reps, err := RunPolicies(racyLoop(5), DefaultConfig(),
		demand.Off, demand.Continuous)
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Policy != demand.Off || reps[1].Policy != demand.Continuous {
		t.Errorf("order: %v %v", reps[0].Policy, reps[1].Policy)
	}
}

func TestInvalidProgramRejected(t *testing.T) {
	p := &program.Program{Name: "empty"}
	if _, err := Run(p, DefaultConfig()); err == nil {
		t.Error("invalid program accepted")
	}
}

// TestPlacementOutsideContextsRejected checks that a Sched.CtxOf placing a
// thread on a context the cache does not have fails the run up front, with
// an error, instead of panicking inside the hierarchy mid-run.
func TestPlacementOutsideContextsRejected(t *testing.T) {
	k, _ := workloads.ByName("histogram")
	p := k.Build(workloads.DefaultConfig())
	for _, kinds := range [][]demand.PolicyKind{{demand.HITMDemand}, {demand.Continuous, demand.HITMDemand}} {
		cfg := DefaultConfig()
		cfg.Sched.CtxOf = func(t vclock.TID) cache.Context { return cache.Context(t + 2) }
		reps, err := RunPolicies(p, cfg, kinds...)
		if err == nil || reps != nil {
			t.Fatalf("%v: placement t -> t+2 on 4 contexts accepted (err %v)", kinds, err)
		}
		if !strings.Contains(err.Error(), "outside [0,4)") {
			t.Errorf("%v: error %q does not name the context range", kinds, err)
		}
	}
	cfg := DefaultConfig()
	cfg.Sched.CtxOf = func(t vclock.TID) cache.Context { return -1 }
	if _, err := Run(p, cfg); err == nil {
		t.Error("negative context accepted")
	}
}

func TestReportString(t *testing.T) {
	r := mustRun(t, racyLoop(5), DefaultConfig().WithPolicy(demand.Continuous))
	if r.String() == "" {
		t.Error("empty report string")
	}
}

func TestWatchDemandEndToEnd(t *testing.T) {
	// The needle-in-haystack kernel: one racy word in a sea of private
	// work. Watch-demand must find the race while analyzing almost
	// nothing and beating the thread-granular policy on cost.
	b := program.NewBuilder("watch-e2e")
	bad := b.Space().AllocLine(8)
	privs := make([]mem.Addr, 2)
	for i := range privs {
		privs[i] = b.Space().AllocArray(400, 8)
	}
	for ti := 0; ti < 2; ti++ {
		tb := b.Thread()
		for i := 0; i < 400; i++ {
			a := privs[ti] + mem.Addr(i*8)
			tb.Load(a).Store(a).Compute(2)
			if i%50 == 25 {
				tb.Load(bad).Store(bad)
			}
		}
	}
	p := b.MustBuild()
	reps, err := RunPolicies(p, DefaultConfig(),
		demand.WatchDemand, demand.HITMDemand, demand.Continuous)
	if err != nil {
		t.Fatal(err)
	}
	watch, hitm, cont := reps[0], reps[1], reps[2]
	if len(watch.Races) == 0 {
		t.Fatal("watch-demand missed the repeated race")
	}
	if watch.Demand.AnalyzedFraction() >= hitm.Demand.AnalyzedFraction() {
		t.Errorf("watch analyzed %.3f, should be below hitm %.3f",
			watch.Demand.AnalyzedFraction(), hitm.Demand.AnalyzedFraction())
	}
	if watch.Slowdown >= cont.Slowdown {
		t.Errorf("watch slowdown %.2f should beat continuous %.2f",
			watch.Slowdown, cont.Slowdown)
	}
}

func TestSamplingEndToEnd(t *testing.T) {
	p := racyLoop(100)
	cfg := DefaultConfig()
	cfg.Demand = demand.Config{Kind: demand.Sampling, SampleRate: 0.5, Seed: 3}
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Demand.AnalyzedFraction()
	if f < 0.35 || f > 0.65 {
		t.Errorf("sampling analyzed fraction = %.2f, want ≈0.5", f)
	}
	// 50% sampling on a 100-iteration race almost surely observes some
	// racing pair.
	if len(r.Races) == 0 {
		t.Error("sampling at 50% missed a 100× repeated race")
	}
}

func TestPageDemandEndToEnd(t *testing.T) {
	// Repeated race: page faults detect the sharing and the detector
	// catches later occurrences, with the fault/sweep costs charged.
	p := racyLoop(100)
	cfg := DefaultConfig().WithPolicy(demand.PageDemand)
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Races) == 0 {
		t.Fatal("page-demand missed a repeated race")
	}
	// The fault cost must show up on the tool side.
	off, err := Run(p, DefaultConfig().WithPolicy(demand.Off))
	if err != nil {
		t.Fatal(err)
	}
	if r.ToolCycles <= off.NativeCycles {
		t.Error("page faults not charged")
	}
}

func TestPageDemandFalseSharingOverhead(t *testing.T) {
	// Thread-private arrays co-located on the same pages: the page
	// mechanism sees sharing everywhere and analysis stays on, while the
	// line-granular HITM policy correctly stays off.
	p := cleanParallel(4, 150)
	reps, err := RunPolicies(p, DefaultConfig(), demand.PageDemand, demand.HITMDemand)
	if err != nil {
		t.Fatal(err)
	}
	page, hitm := reps[0], reps[1]
	if page.Demand.AnalyzedFraction() < 0.3 {
		t.Errorf("page-level false sharing should force high analyzed fraction, got %.2f",
			page.Demand.AnalyzedFraction())
	}
	if hitm.Demand.AnalyzedFraction() != 0 {
		t.Errorf("HITM policy analyzed %.2f of a private kernel",
			hitm.Demand.AnalyzedFraction())
	}
	if page.Slowdown <= hitm.Slowdown {
		t.Error("page mechanism should cost more than HITM on private data")
	}
}

func TestDeadlockEngineFlagsInversion(t *testing.T) {
	b := program.NewBuilder("abba")
	a, bb := b.Mutex(), b.Mutex()
	t0 := b.Thread()
	t0.Lock(a).Lock(bb).Compute(1).Unlock(bb).Unlock(a)
	t1 := b.Thread()
	t1.Compute(500) // keep the hazard latent
	t1.Lock(bb).Lock(a).Compute(1).Unlock(a).Unlock(bb)
	p := b.MustBuild()
	cfg := DefaultConfig().WithPolicy(demand.Continuous)
	cfg.Deadlock = true
	r := mustRun(t, p, cfg)
	if len(r.DeadlockReports) != 1 {
		t.Fatalf("deadlock reports = %v", r.DeadlockReports)
	}
	// And a consistent hierarchy stays clean.
	r2 := mustRun(t, lockedCounter(4, 10), cfg)
	if len(r2.DeadlockReports) != 0 {
		t.Errorf("clean program flagged: %v", r2.DeadlockReports)
	}
}

func TestDeadlockEngineWorksUnderDemandPolicy(t *testing.T) {
	// Lock ops are always analyzed, so the lock-order engine has full
	// visibility even in fast mode.
	k := func() *program.Program {
		b := program.NewBuilder("abba-demand")
		a, bb := b.Mutex(), b.Mutex()
		t0 := b.Thread()
		t0.Lock(a).Lock(bb).Compute(1).Unlock(bb).Unlock(a)
		t1 := b.Thread()
		t1.Compute(500)
		t1.Lock(bb).Lock(a).Compute(1).Unlock(a).Unlock(bb)
		return b.MustBuild()
	}()
	cfg := DefaultConfig().WithPolicy(demand.HITMDemand)
	cfg.Deadlock = true
	r := mustRun(t, k, cfg)
	if len(r.DeadlockReports) != 1 {
		t.Errorf("demand-mode deadlock reports = %v", r.DeadlockReports)
	}
}

// TestMetamorphicAddressTranslation: shifting every address by a
// page-aligned constant must leave races, sharing, and slowdown identical —
// the pipeline must depend only on relative layout.
func TestMetamorphicAddressTranslation(t *testing.T) {
	const shift = mem.Addr(1 << 21)
	translate := func(p *program.Program) *program.Program {
		out := &program.Program{
			Name: p.Name + "+shifted", Threads: make([]program.Thread, len(p.Threads)),
			Mutexes: p.Mutexes, Barriers: p.Barriers, Semaphores: p.Semaphores,
			BarrierParties: append([]int(nil), p.BarrierParties...),
			Labels:         append([]string(nil), p.Labels...),
		}
		for i, th := range p.Threads {
			ops := make([]program.Op, len(th.Ops))
			copy(ops, th.Ops)
			for j := range ops {
				if ops[j].Kind.IsMemory() {
					ops[j].Addr += shift
				}
			}
			out.Threads[i] = program.Thread{ID: th.ID, Ops: ops}
		}
		return out
	}
	for _, build := range []func() *program.Program{
		func() *program.Program { return racyLoop(40) },
		func() *program.Program { return lockedCounter(4, 20) },
	} {
		p := build()
		shifted := translate(p)
		for _, pol := range []demand.PolicyKind{demand.Continuous, demand.HITMDemand} {
			a := mustRun(t, p, DefaultConfig().WithPolicy(pol))
			b := mustRun(t, shifted, DefaultConfig().WithPolicy(pol))
			if len(a.Races) != len(b.Races) || a.SharedHITM != b.SharedHITM ||
				a.Slowdown != b.Slowdown {
				t.Errorf("%s under %v: translation changed behavior: races %d→%d HITM %d→%d slow %.3f→%.3f",
					p.Name, pol, len(a.Races), len(b.Races), a.SharedHITM, b.SharedHITM,
					a.Slowdown, b.Slowdown)
			}
		}
	}
}

// TestMetamorphicRacySetScheduleInvariant: for mutex/barrier programs, the
// set of racy addresses under continuous analysis must not depend on the
// interleaving — a racy pair is unordered in every schedule.
func TestMetamorphicRacySetScheduleInvariant(t *testing.T) {
	build := func() *program.Program {
		b := program.NewBuilder("sched-invariant")
		racy := b.Space().AllocLine(8)
		safe := b.Space().AllocLine(8)
		mu := b.Mutex()
		for ti := 0; ti < 3; ti++ {
			tb := b.Thread()
			for i := 0; i < 20; i++ {
				tb.Load(racy).Store(racy) // the race
				tb.Lock(mu).Load(safe).Store(safe).Unlock(mu)
				tb.Compute(uint64(ti + 1))
			}
		}
		return b.MustBuild()
	}
	want := ""
	for seed := int64(0); seed < 8; seed++ {
		p := build()
		cfg := DefaultConfig().WithPolicy(demand.Continuous)
		cfg.Sched.Policy = sched.RandomInterleave
		cfg.Sched.Seed = seed
		cfg.Sched.Quantum = int(seed%3) + 1
		r := mustRun(t, p, cfg)
		addrs := fmt.Sprintf("%v", sortedKeys(r.RacyAddrs()))
		if want == "" {
			want = addrs
		} else if addrs != want {
			t.Errorf("seed %d: racy set %s != %s", seed, addrs, want)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMetamorphicComputePadding: inserting compute ops (which touch nothing)
// into a single-lock program must not change the racy-address set under
// continuous analysis.
func TestMetamorphicComputePadding(t *testing.T) {
	base := racyLoop(30)
	padded := &program.Program{
		Name: "padded", Threads: make([]program.Thread, len(base.Threads)),
		Mutexes: base.Mutexes, Barriers: base.Barriers, Semaphores: base.Semaphores,
		BarrierParties: append([]int(nil), base.BarrierParties...),
		Labels:         append([]string(nil), base.Labels...),
	}
	for i, th := range base.Threads {
		var ops []program.Op
		for j, op := range th.Ops {
			ops = append(ops, op)
			if j%2 == i%2 {
				ops = append(ops, program.Op{Kind: program.OpCompute, N: uint64(i + j + 1)})
			}
		}
		padded.Threads[i] = program.Thread{ID: th.ID, Ops: ops}
	}
	a := mustRun(t, base, DefaultConfig().WithPolicy(demand.Continuous))
	b := mustRun(t, padded, DefaultConfig().WithPolicy(demand.Continuous))
	if fmt.Sprint(sortedKeys(a.RacyAddrs())) != fmt.Sprint(sortedKeys(b.RacyAddrs())) {
		t.Errorf("padding changed racy set: %v vs %v", a.RacyAddrs(), b.RacyAddrs())
	}
}

func TestExploreAggregatesSchedules(t *testing.T) {
	// A solid race (every schedule) plus a window-dependent one under the
	// demand policy.
	ex, err := Explore(racyLoop(40), DefaultConfig().WithPolicy(demand.Continuous), 6)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Seeds != 6 || len(ex.Reports) != 6 {
		t.Fatalf("exploration = %+v", ex)
	}
	if len(ex.Union) == 0 || len(ex.Intersection) == 0 {
		t.Fatal("solid race not found in every schedule")
	}
	for _, a := range ex.Intersection {
		if ex.HitRate[a] != 1.0 {
			t.Errorf("intersection word %v hit rate %.2f", a, ex.HitRate[a])
		}
	}
	if len(ex.FlakyAddrs()) != len(ex.Union)-len(ex.Intersection) {
		t.Error("flaky partition inconsistent")
	}
}

func TestExploreCleanProgram(t *testing.T) {
	ex, err := Explore(lockedCounter(3, 10), DefaultConfig().WithPolicy(demand.Continuous), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Union) != 0 {
		t.Errorf("clean program flagged: %v", ex.Union)
	}
}

func TestExploreValidation(t *testing.T) {
	if _, err := Explore(racyLoop(5), DefaultConfig(), 0); err == nil {
		t.Error("zero seeds accepted")
	}
}

func TestCalibrateContinuousHitsTarget(t *testing.T) {
	p := cleanParallel(4, 150)
	for _, target := range []float64{20, 100, 250} {
		model, err := CalibrateContinuous(p, DefaultConfig(), target)
		if err != nil {
			t.Fatalf("target %.0f: %v", target, err)
		}
		cfg := DefaultConfig().WithPolicy(demand.Continuous)
		cfg.Cost = model
		r := mustRun(t, p, cfg)
		if r.Slowdown < target*0.95 || r.Slowdown > target*1.05 {
			t.Errorf("target %.0f×: calibrated run measured %.2f×", target, r.Slowdown)
		}
	}
}

func TestCalibrateContinuousErrors(t *testing.T) {
	p := cleanParallel(2, 20)
	if _, err := CalibrateContinuous(p, DefaultConfig(), 1.0); err == nil {
		t.Error("target ≤ 1 accepted")
	}
	// A compute-only program has no data accesses to charge.
	b := program.NewBuilder("compute-only")
	b.Thread().Compute(100)
	if _, err := CalibrateContinuous(b.MustBuild(), DefaultConfig(), 10); err == nil {
		t.Error("program without data accesses accepted")
	}
}
