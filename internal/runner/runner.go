// Package runner wires one program through the whole reproduction pipeline:
// deterministic scheduler → cache hierarchy → PMU → demand controller →
// race detectors → cost model, and collects everything the experiments
// report into a single Report.
//
// A run is one shared execution driving one or more policy lanes. The
// execution is everything upstream of the PMU: the validated program, the
// scheduler and the cache hierarchy. A lane is everything downstream: PMU,
// demand controller, detectors, cost accumulator, telemetry and profiler
// clocks, and the Report. No scheduling or cache decision reads lane state —
// the scheduler only delivers ops, and every data access reaches the
// hierarchy whatever the policy decided — so the lanes run in lockstep: one
// scheduler pass and one hierarchy access per op, with each coherence event
// fanned out to every lane's PMU in the order it is raised. Run is the
// one-lane case; RunPolicies and RunConfigs analyze one execution under
// many policies at once, which is how the experiments compare policies on
// the *identical* interleaving without re-simulating it.
//
// A run is a pure function of (program, config): the scheduler is
// deterministic, the PMU's only nondeterminism is seeded, and the analysis
// policy does not perturb the interleaving. Every lane's report is therefore
// identical to the report of running its configuration alone.
//
// Purity also makes Run safe to call from many goroutines at once, on the
// same or different programs: every piece of mutable state (caches, PMU,
// detectors, accumulators) is built inside the call, and the Program is
// never written after construction. ExploreWorkers exploits this through
// internal/parallel's bounded worker pool; its results are merged in seed
// order, so it is a drop-in replacement for the serial loop with
// byte-identical output.
package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"demandrace/internal/cache"
	"demandrace/internal/cost"
	"demandrace/internal/deadlock"
	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/lockset"
	"demandrace/internal/obs"
	"demandrace/internal/perf"
	"demandrace/internal/prof"
	"demandrace/internal/program"
	"demandrace/internal/sched"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
)

// Config assembles one run. Zero fields take defaults. Cache and Sched
// define the execution; every other field configures one policy lane.
type Config struct {
	// Cache sizes the simulated hierarchy (default cache.DefaultConfig).
	Cache cache.Config
	// Sched controls interleaving; Contexts is forced to the cache's
	// context count.
	Sched sched.Config
	// PMU programs the counters; Contexts and Sel are forced from the
	// cache configuration and the policy.
	PMU perf.Config
	// Demand selects the analysis policy.
	Demand demand.Config
	// Detector configures the happens-before engine.
	Detector detector.Options
	// Cost is the cycle model (default cost.Default).
	Cost cost.Model
	// Lockset additionally runs the Eraser engine over the same gated
	// access stream.
	Lockset bool
	// Tracer, when non-nil, records every executed op for offline replay.
	// Like Trace and Prof it belongs to one lane.
	Tracer *trace.Recorder
	// Deadlock additionally runs the lock-order (potential-deadlock)
	// engine over the analyzed lock operations.
	Deadlock bool
	// Trace, when non-nil, records cycle-timestamped pipeline telemetry
	// (HITMs, PMU overflows and skidded deliveries, mode transitions,
	// race reports) across every stage. Timestamps come from the cost
	// model's tool clock, so traces are deterministic.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives the run's counters at completion.
	// Only counters and histograms are published, so one registry may be
	// shared across parallel runs and still export deterministic totals.
	Metrics *obs.Registry
	// Prof, when non-nil, samples (thread, analysis-mode, kernel-site)
	// every N simulated cycles against the cost model's tool clock. The
	// resulting profile is deterministic and lands in Report.Profile.
	Prof *prof.Profiler
}

// DefaultConfig is a 4-core machine running the paper's demand-driven
// policy at its default operating point.
func DefaultConfig() Config {
	cc := cache.DefaultConfig()
	return Config{
		Cache:  cc,
		Sched:  sched.DefaultConfig(cc.Contexts()),
		PMU:    perf.DefaultConfig(cc.Contexts()),
		Demand: demand.DefaultConfig(),
		Cost:   cost.Default(),
	}
}

// WithPolicy returns a copy of c running under kind.
func (c Config) WithPolicy(kind demand.PolicyKind) Config {
	c.Demand.Kind = kind
	return c
}

func (c Config) normalized() Config {
	if c.Cache.Cores == 0 {
		c.Cache = cache.DefaultConfig()
	}
	if c.Sched.Quantum == 0 {
		c.Sched = sched.DefaultConfig(c.Cache.Contexts())
	}
	c.Sched.Contexts = c.Cache.Contexts()
	if c.PMU.SampleAfter == 0 {
		c.PMU = perf.DefaultConfig(c.Cache.Contexts())
	}
	c.PMU.Contexts = c.Cache.Contexts()
	if c.Demand.Kind == demand.Hybrid {
		// The hybrid trigger uses two real hardware counters — HITM and
		// received invalidations — each with its own overflow threshold,
		// as the four-counter PMU allows.
		c.PMU.Sel = perf.SelHITM
		c.PMU.Extra = []perf.CounterConfig{{Sel: perf.SelInvalidation, SampleAfter: c.PMU.SampleAfter}}
	} else {
		c.PMU.Sel = c.Demand.Kind.Selector()
		c.PMU.Extra = nil
	}
	if c.Cost.AnalysisMem == 0 {
		c.Cost = cost.Default()
	}
	return c
}

// Validate reports the first bound c breaks, the check the cache
// hierarchy, the PMU or the demand controller would otherwise panic on;
// Run returns the same error.
func (c Config) Validate() error { return c.normalized().validate() }

// validate is Validate on a normalized configuration.
func (c Config) validate() error {
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if err := c.PMU.Validate(); err != nil {
		return err
	}
	return c.Demand.Validate()
}

// Report is the complete result of one run.
type Report struct {
	Program string
	Policy  demand.PolicyKind

	// NativeCycles and ToolCycles are the cost model's totals; Slowdown is
	// their ratio. Cost attributes the tool cycles by source.
	NativeCycles uint64
	ToolCycles   uint64
	Slowdown     float64
	Cost         cost.Breakdown

	// Races are the happens-before reports.
	Races []detector.Report
	// LocksetReports are the Eraser engine's findings (when enabled).
	LocksetReports []lockset.Report
	// DeadlockReports are the lock-order engine's findings (when enabled).
	DeadlockReports []deadlock.Report

	// MemOps is the number of executed data accesses; SharedHITM of those
	// were served by a remote Modified line, SharedPeer by any peer cache.
	MemOps     uint64
	SharedHITM uint64
	SharedPeer uint64

	Cache cache.Stats
	// Cores holds each simulated core's access profile.
	Cores  []cache.CoreStats
	PMU    perf.Stats
	Demand demand.Stats
	// Threads holds per-thread analysis residency.
	Threads  []demand.ThreadResidency
	Detector detector.Stats
	// Steps is the scheduler's executed-op count.
	Steps uint64
	// Timeline holds each thread's fast/analysis spans in simulated
	// cycles, derived from the telemetry trace (nil unless Config.Trace
	// was set). The report package renders it as the mode-timeline
	// section.
	Timeline []obs.Span
	// Profile is the deterministic cycle profile (nil unless Config.Prof
	// was set): sample counts by (thread, mode, kernel site), ready for
	// folded-stack export.
	Profile *prof.Profile `json:",omitempty"`
}

// SharingFraction is the fraction of data accesses that hit a remote
// Modified line — the paper's "how rare is sharing" statistic.
func (r *Report) SharingFraction() float64 {
	if r.MemOps == 0 {
		return 0
	}
	return float64(r.SharedHITM) / float64(r.MemOps)
}

// RacyAddrs returns the distinct racy words.
func (r *Report) RacyAddrs() map[string]bool {
	m := map[string]bool{}
	for _, rc := range r.Races {
		m[rc.Addr.String()] = true
	}
	return m
}

func (r *Report) String() string {
	return fmt.Sprintf("%s[%s]: slowdown %.2f×, %d races, %.4f shared",
		r.Program, r.Policy, r.Slowdown, len(r.Races), r.SharingFraction())
}

// execution is the half of a run every lane shares: the program, the
// scheduler pass and the cache hierarchy. It is the sched.Executor, and it
// drives its lanes in lockstep.
type execution struct {
	hier  *cache.Hierarchy
	lanes []*lane
	// memOps, sharedHITM and sharedPeer describe the executed data accesses
	// and how they were served; they are the same under every policy.
	memOps, sharedHITM, sharedPeer uint64
}

// lane is one policy's analysis of the shared execution.
type lane struct {
	cfg   Config
	prog  *program.Program
	pmu   *perf.PMU
	ctl   *demand.Controller
	det   *detector.Detector
	ls    *lockset.Detector
	dl    *deadlock.Detector
	acc   *cost.Accumulator
	track bool // policy != Off: detector active at all
	// analyzed is the instrumentation decision for the data access in
	// flight, taken before the hierarchy sees the access.
	analyzed bool
}

func (e *execution) Exec(t vclock.TID, ctx cache.Context, op program.Op) {
	switch op.Kind {
	case program.OpLoad, program.OpStore, program.OpAtomicLoad, program.OpAtomicStore:
		// The instrumentation decision reflects the thread's mode at the
		// op's start; the access's own HITM (if any) can only influence
		// later ops, as on real hardware.
		for _, l := range e.lanes {
			l.analyzed = l.ctl.ShouldAnalyze(t, op)
		}
		res := e.hier.Access(ctx, op.Addr, op.Kind.IsWrite())
		e.memOps++
		if res.HITM {
			e.sharedHITM++
		}
		if res.SrcCore >= 0 {
			e.sharedPeer++
		}
		for _, l := range e.lanes {
			l.access(t, ctx, op, res)
		}
	default:
		for _, l := range e.lanes {
			l.exec(t, ctx, op)
		}
	}
}

func (e *execution) BarrierRelease(id program.SyncID, parties []vclock.TID) {
	for _, l := range e.lanes {
		l.barrierRelease(id, parties)
	}
}

// access finishes one data access for the lane once the hierarchy has
// served it (and raised its coherence events into the lane's PMU).
func (l *lane) access(t vclock.TID, ctx cache.Context, op program.Op, res cache.Result) {
	analyzed := l.analyzed
	l.pmu.Retire(ctx)
	if l.cfg.Tracer != nil {
		l.cfg.Tracer.RecordOp(t, ctx, op, res.HITM, analyzed && l.track)
	}
	if res.HITM {
		// Instrumented code observes its own sharing; the controller
		// uses it to keep analysis alive while the PMU is disarmed.
		l.ctl.NoteSharing(t)
	}
	switch op.Kind {
	case program.OpLoad:
		l.acc.Mem(res.Latency, analyzed)
		if analyzed && l.track {
			l.det.OnRead(t, op.Addr)
			if l.ls != nil {
				l.ls.OnRead(t, op.Addr)
			}
		}
	case program.OpStore:
		l.acc.Mem(res.Latency, analyzed)
		if analyzed && l.track {
			l.det.OnWrite(t, op.Addr)
			if l.ls != nil {
				l.ls.OnWrite(t, op.Addr)
			}
		}
	case program.OpAtomicLoad:
		// Atomics are synchronization: the access itself runs on the
		// hardware (and can HITM) while the detector takes the
		// happens-before edge.
		l.acc.Mem(res.Latency, false)
		l.acc.Sync(analyzed)
		if analyzed && l.track {
			l.det.OnAtomicLoad(t, op.Addr)
		}
	case program.OpAtomicStore:
		l.acc.Mem(res.Latency, false)
		l.acc.Sync(analyzed)
		if analyzed && l.track {
			l.det.OnAtomicStore(t, op.Addr)
		}
	}
	l.tick(t)
}

// exec runs one op that does not touch the cache hierarchy.
func (l *lane) exec(t vclock.TID, ctx cache.Context, op program.Op) {
	switch op.Kind {
	case program.OpLock:
		analyzed := l.syncOp(t, ctx, op)
		if analyzed && l.track {
			l.det.OnLock(t, op.Sync)
			if l.ls != nil {
				l.ls.OnLock(t, op.Sync)
			}
			if l.dl != nil {
				l.dl.OnLock(t, op.Sync)
			}
		}
	case program.OpUnlock:
		analyzed := l.syncOp(t, ctx, op)
		if analyzed && l.track {
			l.det.OnUnlock(t, op.Sync)
			if l.ls != nil {
				l.ls.OnUnlock(t, op.Sync)
			}
			if l.dl != nil {
				l.dl.OnUnlock(t, op.Sync)
			}
		}
	case program.OpSignal:
		if l.syncOp(t, ctx, op) && l.track {
			l.det.OnSignal(t, op.Sync)
		}
	case program.OpWait:
		if l.syncOp(t, ctx, op) && l.track {
			l.det.OnWait(t, op.Sync)
		}
	case program.OpCompute:
		l.acc.Compute(op.N)
		l.pmu.Retire(ctx)
		if l.cfg.Tracer != nil {
			l.cfg.Tracer.RecordOp(t, ctx, op, false, false)
		}
	case program.OpMark:
		// Region annotations are free metadata: they retag the thread for
		// subsequent race reports under every policy that tracks at all.
		label := l.prog.LabelOf(op)
		if l.track {
			l.det.SetRegion(t, label)
		}
		if l.cfg.Tracer != nil {
			l.cfg.Tracer.RecordMark(t, ctx, label)
		}
		l.cfg.Prof.Mark(int(t), label)
	}
	l.tick(t)
}

// syncOp charges and records one lock, unlock, signal or wait, and returns
// whether the lane instruments it.
func (l *lane) syncOp(t vclock.TID, ctx cache.Context, op program.Op) bool {
	analyzed := l.ctl.ShouldAnalyze(t, op)
	l.acc.Sync(analyzed)
	l.pmu.Retire(ctx)
	if l.cfg.Tracer != nil {
		l.cfg.Tracer.RecordOp(t, ctx, op, false, analyzed && l.track)
	}
	return analyzed
}

// tick attributes any profiler sampling boundaries the op just crossed on
// the lane's tool clock to the thread that was executing.
func (l *lane) tick(t vclock.TID) {
	if l.cfg.Prof != nil {
		l.cfg.Prof.Tick(int(t), l.ctl.Analyzing(t))
	}
}

func (l *lane) barrierRelease(id program.SyncID, parties []vclock.TID) {
	analyzedAny := false
	for _, p := range parties {
		if l.ctl.ShouldAnalyze(p, program.Op{Kind: program.OpBarrier, Sync: id}) {
			analyzedAny = true
			l.acc.Sync(true)
		} else {
			l.acc.Sync(false)
		}
		l.tick(p)
	}
	if l.cfg.Tracer != nil {
		l.cfg.Tracer.RecordBarrier(id, parties, analyzedAny && l.track)
	}
	if analyzedAny && l.track {
		l.det.OnBarrierRelease(parties)
	}
}

// observe is the lane's coherence-event sink: the PMU counts the event
// first, then the telemetry trace records the PMU-relevant kinds (HITM,
// invalidation, writeback) against the lane's tool clock.
func (l *lane) observe(ev cache.Event) {
	l.pmu.Observe(ev)
	if l.cfg.Trace == nil {
		return
	}
	var kind obs.Kind
	switch ev.Kind {
	case cache.EvHITM:
		kind = obs.KindHITM
	case cache.EvInvalidation:
		kind = obs.KindInvalidation
	case cache.EvWriteback:
		kind = obs.KindWriteback
	default:
		return
	}
	l.cfg.Trace.Emit(kind, -1, int(ev.Ctx), uint64(ev.Line), int64(ev.Src), "")
}

// newLane builds one policy's pipeline over the shared scheduler and
// hierarchy. cfg must be normalized.
func newLane(p *program.Program, cfg Config, sc *sched.Scheduler, hier *cache.Hierarchy) *lane {
	l := &lane{
		cfg:   cfg,
		prog:  p,
		pmu:   perf.New(cfg.PMU),
		ctl:   demand.New(cfg.Demand, p.NumThreads(), sc.CtxOf, hier.CoreOf),
		det:   detector.ForProgram(p, cfg.Detector),
		acc:   cost.NewAccumulator(cfg.Cost),
		track: cfg.Demand.Kind != demand.Off,
	}
	if cfg.Trace != nil {
		// Telemetry timestamps are the lane's tool clock: simulated cycles
		// under the attached tool, advancing deterministically with the run.
		cfg.Trace.SetClock(l.acc.ToolCycles)
		l.pmu.SetTracer(cfg.Trace)
		l.ctl.SetTracer(cfg.Trace)
		l.det.SetTracer(cfg.Trace)
	}
	if cfg.Prof != nil {
		// The profiler samples against the same tool clock the telemetry
		// uses, so profiles inherit the determinism contract. It also shares
		// the detector's region-ID table: one label namespace per lane, and
		// OpMark interns each label once for both consumers.
		cfg.Prof.SetClock(l.acc.ToolCycles)
		cfg.Prof.ShareSites(l.det.RegionTable())
		cfg.Prof.SetThreads(p.NumThreads())
	}
	if cfg.Lockset {
		l.ls = lockset.New(p.NumThreads())
	}
	if cfg.Deadlock {
		l.dl = deadlock.New(p.NumThreads())
	}

	demandPolicy := cfg.Demand.Kind.Demand()
	l.pmu.SetHandler(func(s perf.Sample) {
		if demandPolicy {
			l.acc.Interrupt()
		}
		l.ctl.OnSample(s)
	})
	if demandPolicy {
		// Mirror the paper: the HITM counter is disarmed while a context's
		// threads are all in analysis mode (the signal is redundant there)
		// and re-armed when a thread decays back to fast execution.
		l.ctl.SetCounterControl(l.pmu.SetEnabled)
	}
	return l
}

// report settles the lane's end-of-run costs and assembles its Report.
func (l *lane) report(e *execution, sc *sched.Scheduler) *Report {
	l.pmu.DrainAll()

	cfg, acc := l.cfg, l.acc
	dst := l.ctl.Stats()
	if cfg.Demand.Kind == demand.WatchDemand {
		// Watchpoint arming writes a debug register instead of re-patching
		// instrumentation; expiration is free.
		acc.WatchArm(dst.EnableTransitions)
	} else {
		acc.ModeSwitch(dst.EnableTransitions + dst.DisableTransitions)
	}
	if pt := l.ctl.PageTracker(); pt != nil {
		acc.PageFaults(pt.Stats().Faults)
		acc.ProtSweeps(pt.Stats().Sweeps)
	}

	rep := &Report{
		Program:      l.prog.Name,
		Policy:       cfg.Demand.Kind,
		NativeCycles: acc.NativeCycles(),
		ToolCycles:   acc.ToolCycles(),
		Slowdown:     acc.Slowdown(),
		Cost:         acc.Breakdown(),
		Races:        l.det.Reports(),
		MemOps:       e.memOps,
		SharedHITM:   e.sharedHITM,
		SharedPeer:   e.sharedPeer,
		Cache:        e.hier.Stats(),
		Cores:        e.hier.PerCoreStats(),
		PMU:          l.pmu.Stats(),
		Demand:       dst,
		Threads:      l.ctl.Residency(),
		Detector:     l.det.Stats(),
		Steps:        sc.Steps(),
	}
	if l.ls != nil {
		rep.LocksetReports = l.ls.Reports()
	}
	if l.dl != nil {
		rep.DeadlockReports = l.dl.Reports()
	}
	if cfg.Trace != nil {
		rep.Timeline = obs.ThreadSpans(cfg.Trace.Events(), acc.ToolCycles(),
			l.prog.NumThreads(), cfg.Demand.Kind == demand.Continuous)
	}
	if cfg.Prof != nil {
		rep.Profile = cfg.Prof.Snapshot(l.prog.Name)
	}
	publishMetrics(cfg.Metrics, rep)
	return rep
}

// execute runs p once and analyzes it under every lane configuration,
// returning one report per lane in order. The configurations must be
// normalized and agree on Cache and Sched; the first one's drive the
// execution.
func execute(ctx context.Context, p *program.Program, cfgs []Config) ([]*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkObservers(cfgs); err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		return []*Report{}, nil
	}
	for _, c := range cfgs {
		if err := c.validate(); err != nil {
			return nil, err
		}
	}
	sc, err := sched.New(p, cfgs[0].Sched)
	if err != nil {
		return nil, err
	}
	e := &execution{hier: cache.New(cfgs[0].Cache), lanes: make([]*lane, len(cfgs))}
	for i, cfg := range cfgs {
		e.lanes[i] = newLane(p, cfg, sc, e.hier)
	}
	if len(e.lanes) == 1 {
		e.hier.SetEventSink(e.lanes[0].observe)
	} else {
		e.hier.SetEventSink(func(ev cache.Event) {
			for _, l := range e.lanes {
				l.observe(ev)
			}
		})
	}

	if err := sc.RunContext(ctx, e); err != nil {
		return nil, err
	}
	reps := make([]*Report, len(e.lanes))
	for i, l := range e.lanes {
		reps[i] = l.report(e, sc)
	}
	return reps, nil
}

// checkObservers rejects lanes that share a Trace, Prof or Tracer: each
// records one lane's clock-stamped history. A Metrics registry may be
// shared, since its counters commute.
func checkObservers(cfgs []Config) error {
	if len(cfgs) < 2 {
		return nil
	}
	traces := map[*obs.Tracer]bool{}
	profs := map[*prof.Profiler]bool{}
	recs := map[*trace.Recorder]bool{}
	for i, c := range cfgs {
		if claim(traces, c.Trace) || claim(profs, c.Prof) || claim(recs, c.Tracer) {
			return fmt.Errorf("runner: lane %d shares a Trace, Prof or Tracer with an earlier lane", i)
		}
	}
	return nil
}

// claim marks p as taken and reports whether it already was; nil is never
// taken.
func claim[T any](taken map[*T]bool, p *T) bool {
	if p == nil {
		return false
	}
	if taken[p] {
		return true
	}
	taken[p] = true
	return false
}

// sameExecution reports why b cannot share a's execution, if it cannot.
// Both configurations must be normalized.
func sameExecution(a, b Config) error {
	if a.Cache != b.Cache {
		return fmt.Errorf("cache %+v differs from %+v", b.Cache, a.Cache)
	}
	if a.Sched.CtxOf != nil || b.Sched.CtxOf != nil {
		return errors.New("Sched.CtxOf placement functions cannot be compared across lanes")
	}
	if !reflect.DeepEqual(a.Sched, b.Sched) {
		return fmt.Errorf("sched %+v differs from %+v", b.Sched, a.Sched)
	}
	return nil
}

// Run executes p under cfg and returns the full report.
func Run(p *program.Program, cfg Config) (*Report, error) {
	return RunContext(context.Background(), p, cfg)
}

// RunContext is Run with a deadline/cancellation context. The context is
// checked at scheduler-quantum boundaries — the finest point at which the
// simulation can stop without tearing an operation — so even multi-second
// runs abort promptly. A canceled run returns an error satisfying
// errors.Is(err, ctx.Err()); no partial Report is produced, because every
// statistic in a Report is defined over a completed execution.
func RunContext(ctx context.Context, p *program.Program, cfg Config) (*Report, error) {
	reps, err := execute(ctx, p, []Config{cfg.normalized()})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// RunPolicies analyzes one execution of p under each policy, with cfg
// otherwise unchanged, and returns the reports in policy order. Each report
// equals Run(p, cfg.WithPolicy(kind)); the scheduler and the cache
// hierarchy run once for all of them.
func RunPolicies(p *program.Program, cfg Config, kinds ...demand.PolicyKind) ([]*Report, error) {
	cfgs := make([]Config, len(kinds))
	for i, k := range kinds {
		// Every lane derives from cfg, so they share its execution by
		// construction — even a Sched.CtxOf that RunConfigs cannot compare.
		cfgs[i] = cfg.WithPolicy(k).normalized()
	}
	return execute(context.Background(), p, cfgs)
}

// RunConfigs analyzes one execution of p under each configuration and
// returns the reports in order; each equals Run(p, cfgs[i]). The
// configurations must normalize to the same Cache and Sched (and leave
// Sched.CtxOf unset when there is more than one); they may differ in every
// per-lane field. No two may share a Trace, Prof or Tracer.
func RunConfigs(p *program.Program, cfgs ...Config) ([]*Report, error) {
	lanes := make([]Config, len(cfgs))
	for i, c := range cfgs {
		lanes[i] = c.normalized()
		if i == 0 {
			continue
		}
		if err := sameExecution(lanes[0], lanes[i]); err != nil {
			return nil, fmt.Errorf("runner: lane %d cannot share lane 0's execution: %w", i, err)
		}
	}
	return execute(context.Background(), p, lanes)
}
