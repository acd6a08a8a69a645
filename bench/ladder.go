package main

// The layer ladder attributes the host time of a simulator run to the
// pipeline's layers without timing individual calls (a time.Now pair costs
// more than most of the calls it would bracket). It re-implements the
// runner's executor so that it can stop at any layer: rung r runs the
// scheduler plus every layer up to r, each rung is timed as a whole run,
// and a layer's self time is its rung's median minus the previous rung's.
// The top rung is the whole pipeline and must reproduce runner.Run exactly
// (referenceRun); that check is what keeps this copy of the executor
// honest until the runner attributes its own time.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"demandrace/internal/cache"
	"demandrace/internal/cost"
	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/perf"
	"demandrace/internal/program"
	"demandrace/internal/runner"
	"demandrace/internal/sched"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
)

// Rungs of the ladder, bottom to top.
const (
	rungSetup    = iota // validation and the layer constructors only
	rungSched           // + sched.Scheduler.Run with a no-op executor
	rungCache           // + cache.Hierarchy.Access
	rungPerf            // + the PMU: event sink, Retire, DrainAll
	rungDemand          // + the demand controller
	rungDetector        // + the happens-before detector
	rungCost            // + the cost accumulator: the whole pipeline
	numRungs
)

// rungLayer names the layer each rung adds, as its per-layer metric prefix.
var rungLayer = [numRungs]string{"runner.setup", "sched", "cache", "perf", "demand", "detector", "cost"}

// ladderCase is one simulator run of a workload's corpus.
type ladderCase struct {
	build func() *program.Program
	cfg   runner.Config
}

// mirrored are the policies the ladder's executor reproduces. The others
// add work the ladder has no rung for (page protection, watchpoints,
// sampling, a second counter), so they are refused rather than
// mis-measured.
var mirrored = map[demand.PolicyKind]bool{demand.Off: true, demand.Continuous: true, demand.HITMDemand: true}

// mirrorConfig applies the runner's normalization to cfg, which must be
// derived from runner.DefaultConfig and use a mirrored policy.
func mirrorConfig(cfg runner.Config) (runner.Config, error) {
	if !mirrored[cfg.Demand.Kind] {
		return cfg, fmt.Errorf("ladder: policy %v is not mirrored", cfg.Demand.Kind)
	}
	if cfg.Tracer != nil || cfg.Trace != nil || cfg.Prof != nil || cfg.Metrics != nil || cfg.Lockset || cfg.Deadlock {
		return cfg, errors.New("ladder: telemetry and the extra engines are not mirrored")
	}
	if cfg.Cache.Cores == 0 || cfg.Sched.Quantum == 0 || cfg.PMU.SampleAfter == 0 || cfg.Cost.AnalysisMem == 0 {
		return cfg, errors.New("ladder: the configuration must start from runner.DefaultConfig")
	}
	cfg.Sched.Contexts = cfg.Cache.Contexts()
	cfg.PMU.Contexts = cfg.Cache.Contexts()
	cfg.PMU.Sel = cfg.Demand.Kind.Selector()
	cfg.PMU.Extra = nil
	return cfg, nil
}

// climb runs p up to rung top and returns the report fields the rungs it
// ran produce.
func climb(p *program.Program, cfg runner.Config, top int) (*runner.Report, error) {
	cfg, err := mirrorConfig(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hier := cache.New(cfg.Cache)
	pmu := perf.New(cfg.PMU)
	sc, err := sched.New(p, cfg.Sched)
	if err != nil {
		return nil, err
	}
	ctl := demand.New(cfg.Demand, p.NumThreads(), sc.CtxOf, hier.CoreOf)
	det := detector.ForProgram(p, cfg.Detector)
	acc := cost.NewAccumulator(cfg.Cost)
	rep := &runner.Report{Program: p.Name, Policy: cfg.Demand.Kind}
	if top == rungSetup {
		return rep, nil
	}
	if top >= rungPerf {
		hier.SetEventSink(pmu.Observe)
	}
	if top >= rungDemand {
		interrupts := cfg.Demand.Kind.Demand() && top >= rungCost
		pmu.SetHandler(func(s perf.Sample) {
			if interrupts {
				acc.Interrupt()
			}
			ctl.OnSample(s)
		})
		if cfg.Demand.Kind.Demand() {
			ctl.SetCounterControl(pmu.SetEnabled)
		}
	}
	ex := &ladderExec{
		top: top, prog: p, hier: hier, pmu: pmu, ctl: ctl, det: det, acc: acc, rep: rep,
		track: cfg.Demand.Kind != demand.Off,
	}
	if err := sc.Run(ex); err != nil {
		return nil, err
	}
	rep.Steps = sc.Steps()
	rep.Cache = hier.Stats()
	if top >= rungPerf {
		pmu.DrainAll()
		rep.PMU = pmu.Stats()
	}
	if top >= rungDemand {
		rep.Demand = ctl.Stats()
	}
	if top >= rungDetector {
		rep.Races = det.Reports()
		rep.Detector = det.Stats()
	}
	if top >= rungCost {
		acc.ModeSwitch(rep.Demand.EnableTransitions + rep.Demand.DisableTransitions)
		rep.NativeCycles = acc.NativeCycles()
		rep.ToolCycles = acc.ToolCycles()
		rep.Slowdown = acc.Slowdown()
		rep.Cost = acc.Breakdown()
	}
	return rep, nil
}

// ladderExec is the runner's executor with every layer above top switched
// off. At rungCost it makes the same calls in the same order as the
// runner's.
type ladderExec struct {
	top   int
	prog  *program.Program
	hier  *cache.Hierarchy
	pmu   *perf.PMU
	ctl   *demand.Controller
	det   *detector.Detector
	acc   *cost.Accumulator
	rep   *runner.Report
	track bool
}

func (e *ladderExec) analyze(t vclock.TID, op program.Op) bool {
	return e.top >= rungDemand && e.ctl.ShouldAnalyze(t, op)
}

func (e *ladderExec) Exec(t vclock.TID, ctx cache.Context, op program.Op) {
	switch op.Kind {
	case program.OpLoad, program.OpStore, program.OpAtomicLoad, program.OpAtomicStore:
		analyzed := e.analyze(t, op)
		if e.top < rungCache {
			return
		}
		res := e.hier.Access(ctx, op.Addr, op.Kind.IsWrite())
		if e.top >= rungPerf {
			e.pmu.Retire(ctx)
		}
		e.rep.MemOps++
		if res.HITM {
			e.rep.SharedHITM++
			if e.top >= rungDemand {
				e.ctl.NoteSharing(t)
			}
		}
		if res.SrcCore >= 0 {
			e.rep.SharedPeer++
		}
		costs := e.top >= rungCost
		check := analyzed && e.track && e.top >= rungDetector
		switch op.Kind {
		case program.OpLoad:
			if costs {
				e.acc.Mem(res.Latency, analyzed)
			}
			if check {
				e.det.OnRead(t, op.Addr)
			}
		case program.OpStore:
			if costs {
				e.acc.Mem(res.Latency, analyzed)
			}
			if check {
				e.det.OnWrite(t, op.Addr)
			}
		case program.OpAtomicLoad:
			if costs {
				e.acc.Mem(res.Latency, false)
				e.acc.Sync(analyzed)
			}
			if check {
				e.det.OnAtomicLoad(t, op.Addr)
			}
		case program.OpAtomicStore:
			if costs {
				e.acc.Mem(res.Latency, false)
				e.acc.Sync(analyzed)
			}
			if check {
				e.det.OnAtomicStore(t, op.Addr)
			}
		}
	case program.OpLock, program.OpUnlock, program.OpSignal, program.OpWait:
		analyzed := e.analyze(t, op)
		if e.top >= rungCost {
			e.acc.Sync(analyzed)
		}
		if e.top >= rungPerf {
			e.pmu.Retire(ctx)
		}
		if !analyzed || !e.track || e.top < rungDetector {
			return
		}
		switch op.Kind {
		case program.OpLock:
			e.det.OnLock(t, op.Sync)
		case program.OpUnlock:
			e.det.OnUnlock(t, op.Sync)
		case program.OpSignal:
			e.det.OnSignal(t, op.Sync)
		case program.OpWait:
			e.det.OnWait(t, op.Sync)
		}
	case program.OpCompute:
		if e.top >= rungCost {
			e.acc.Compute(op.N)
		}
		if e.top >= rungPerf {
			e.pmu.Retire(ctx)
		}
	case program.OpMark:
		if e.track && e.top >= rungDetector {
			e.det.SetRegion(t, e.prog.LabelOf(op))
		}
	}
}

func (e *ladderExec) BarrierRelease(id program.SyncID, parties []vclock.TID) {
	if e.top < rungDemand {
		return
	}
	analyzedAny := false
	for _, p := range parties {
		analyzed := e.ctl.ShouldAnalyze(p, program.Op{Kind: program.OpBarrier, Sync: id})
		analyzedAny = analyzedAny || analyzed
		if e.top >= rungCost {
			e.acc.Sync(analyzed)
		}
	}
	if analyzedAny && e.track && e.top >= rungDetector {
		e.det.OnBarrierRelease(parties)
	}
}

// fidelity is the part of a report the ladder's top rung must reproduce.
type fidelity struct {
	ToolCycles, NativeCycles uint64
	Races                    []detector.Report
	SharedHITM               uint64
	Cache                    cache.Stats
	PMU                      perf.Stats
	Demand                   demand.Stats
	Detector                 detector.Stats
}

func fidelityOf(r *runner.Report) fidelity {
	return fidelity{
		ToolCycles: r.ToolCycles, NativeCycles: r.NativeCycles, Races: r.Races, SharedHITM: r.SharedHITM,
		Cache: r.Cache, PMU: r.PMU, Demand: r.Demand, Detector: r.Detector,
	}
}

// referenceRun runs p through runner.Run, recording its trace into rec
// when rec is non-nil, and through the ladder's top rung. It returns the
// runner's report and whether the two agree.
func referenceRun(p *program.Program, cfg runner.Config, rec *trace.Recorder) (*runner.Report, bool, error) {
	got, err := climb(p, cfg, rungCost)
	if err != nil {
		return nil, false, err
	}
	cfg.Tracer = rec
	want, err := runner.Run(p, cfg)
	if err != nil {
		return nil, false, err
	}
	return want, reflect.DeepEqual(fidelityOf(want), fidelityOf(got)), nil
}

// ladderResult sums, over a corpus, each timing's median across the
// repetitions.
type ladderResult struct {
	rung  [numRungs]time.Duration
	ref   time.Duration // runner.Run
	build time.Duration // building the program
	steps uint64
	// mismatched counts cases whose top rung differed from runner.Run.
	mismatched int
	// reports are the cases' runner.Run reports, for the exact counts.
	reports []*runner.Report
	// traces are the cases' runs recorded and encoded, for the trace-codec
	// layers.
	traces [][]byte
}

// runLadder checks every case's fidelity (recording its trace on the way),
// then times reps repetitions in which each case runs its program build,
// runner.Run and every rung.
func runLadder(cases []ladderCase, reps int) (*ladderResult, error) {
	lr := &ladderResult{}
	progs := make([]*program.Program, len(cases))
	for i, c := range cases {
		progs[i] = c.build()
		rec := trace.NewRecorder(progs[i].Name)
		ref, ok, err := referenceRun(progs[i], c.cfg, rec)
		if err != nil {
			return nil, fmt.Errorf("ladder: %s: %w", progs[i].Name, err)
		}
		if !ok {
			lr.mismatched++
		}
		var buf bytes.Buffer
		if err := trace.EncodeBinary(&buf, rec.Trace()); err != nil {
			return nil, err
		}
		lr.traces = append(lr.traces, buf.Bytes())
		lr.reports = append(lr.reports, ref)
		lr.steps += ref.Steps
	}

	// Each repetition runs the build, runner.Run and the rungs in a fresh
	// order, so that the garbage one timing leaves behind is collected
	// during each of the others equally often.
	const refIdx, buildIdx = numRungs, numRungs + 1
	samples := make([][numRungs + 2][]float64, len(cases))
	order := rand.New(rand.NewSource(1))
	slots := make([]int, numRungs+2)
	for i := range slots {
		slots[i] = i
	}
	for rep := 0; rep < reps; rep++ {
		for i, c := range cases {
			order.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
			for _, slot := range slots {
				var err error
				start := time.Now()
				switch slot {
				case buildIdx:
					c.build()
				case refIdx:
					_, err = runner.Run(progs[i], c.cfg)
				default:
					_, err = climb(progs[i], c.cfg, slot)
				}
				samples[i][slot] = append(samples[i][slot], float64(time.Since(start)))
				if err != nil {
					return nil, err
				}
			}
		}
	}
	for i := range cases {
		for r := 0; r < numRungs; r++ {
			lr.rung[r] += time.Duration(median(samples[i][r]))
		}
		lr.ref += time.Duration(median(samples[i][refIdx]))
		lr.build += time.Duration(median(samples[i][buildIdx]))
	}
	return lr, nil
}

// selfTime is the time layer r adds to the rung below it.
func (lr *ladderResult) selfTime(r int) time.Duration {
	if r == rungSetup {
		return lr.rung[r]
	}
	return lr.rung[r] - lr.rung[r-1]
}
