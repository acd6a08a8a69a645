// Package demandrace is a reproduction of "Demand-Driven Software Race
// Detection using Hardware Performance Counters" (Greathouse, Ma, Frank,
// Peri, Austin; ISCA 2011) as a self-contained Go library.
//
// The paper's insight: data races require inter-thread data sharing, and
// cache-coherent hardware already detects sharing — a load or store that
// hits a line Modified in another core's cache raises a HITM coherence
// event that per-thread performance counters can sample. Gating a software
// happens-before race detector on that signal lets threads run
// uninstrumented until sharing actually occurs, recovering most of the
// 10–300× overhead of continuous analysis on low-sharing programs while
// finding nearly all of the same races.
//
// Because Go programs cannot portably observe per-thread HITM counters (the
// runtime migrates goroutines across threads at will), this reproduction
// builds the entire stack as a deterministic simulation: a MESI cache
// hierarchy that raises HITM events, a PMU with sample-after values, skid
// and drop-rate, a FastTrack happens-before detector standing in for the
// Intel Inspector XE engine, and the demand-driven controller that gates
// it. Workload kernels mimic the sharing profiles of the Phoenix and
// PARSEC suites the paper evaluates.
//
// # Quick start
//
//	b := demandrace.NewProgram("example")
//	x := b.Space().AllocLine(8)
//	t0, t1 := b.Thread(), b.Thread()
//	for i := 0; i < 10; i++ {
//		t0.Store(x).Compute(5)
//		t1.Load(x).Compute(5)
//	}
//	p := b.MustBuild()
//
//	rep, err := demandrace.Run(p, demandrace.DefaultConfig().WithPolicy(demandrace.HITMDemand))
//	if err != nil { ... }
//	fmt.Println(rep.Slowdown, rep.Races)
//
// The cmd/ddrace binary runs any bundled kernel under any policy, and
// cmd/experiments regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md).
package demandrace

import (
	"io"

	"demandrace/internal/cache"
	"demandrace/internal/cost"
	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/mem"
	"demandrace/internal/obs"
	"demandrace/internal/perf"
	"demandrace/internal/program"
	"demandrace/internal/racefuzz"
	"demandrace/internal/runner"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// Addr is a byte address in the simulated flat address space.
type Addr = mem.Addr

// AddressSpace hands out non-overlapping simulated memory regions with
// controlled cache-line alignment.
type AddressSpace = mem.Space

// Program is an op-level multithreaded workload. Build one with NewProgram
// or take a bundled kernel from Kernels.
type Program = program.Program

// ProgramBuilder assembles a Program with a per-thread fluent DSL.
type ProgramBuilder = program.Builder

// ThreadBuilder appends ops to one thread of a program under construction.
type ThreadBuilder = program.ThreadBuilder

// NewProgram starts a program builder.
func NewProgram(name string) *ProgramBuilder { return program.NewBuilder(name) }

// Policy selects how analysis is gated.
type Policy = demand.PolicyKind

// The available analysis policies.
const (
	// Off runs natively with no analysis at all: the timing baseline.
	Off = demand.Off
	// Continuous analyzes every access: the Inspector-XE-style tool the
	// paper compares against.
	Continuous = demand.Continuous
	// SyncOnly instruments synchronization but never data accesses.
	SyncOnly = demand.SyncOnly
	// HITMDemand is the paper's contribution: analysis toggled by HITM
	// performance-counter samples.
	HITMDemand = demand.HITMDemand
	// Hybrid triggers on the broader HITM+invalidation signal.
	Hybrid = demand.Hybrid
	// Sampling analyzes each access with probability
	// Config.Demand.SampleRate: the LiteRace-style software-only baseline.
	Sampling = demand.Sampling
	// WatchDemand arms hardware watchpoints on sampled shared lines and
	// analyzes only accesses that hit them.
	WatchDemand = demand.WatchDemand
	// PageDemand gates analysis on page-protection faults instead of
	// performance counters: the pre-PMU software mechanism.
	PageDemand = demand.PageDemand
)

// Scope selects which threads a sharing sample enables.
type Scope = demand.Scope

// The available sample scopes.
const (
	ScopeGlobal = demand.ScopeGlobal
	ScopePair   = demand.ScopePair
	ScopeSelf   = demand.ScopeSelf
)

// Config assembles one run: machine shape, PMU programming, analysis
// policy, detector options, and cost model.
type Config = runner.Config

// Report is the complete result of one run: races found, cycle counts,
// slowdown, sharing profile, and per-component statistics.
type Report = runner.Report

// RaceReport describes one detected race.
type RaceReport = detector.Report

// DetectorOptions configures the happens-before engine.
type DetectorOptions = detector.Options

// CacheConfig sizes the simulated cache hierarchy.
type CacheConfig = cache.Config

// CacheHierarchy is the simulated MESI multicore cache system, exposed for
// users who want to drive the hardware substrate directly.
type CacheHierarchy = cache.Hierarchy

// Context identifies a simulated hardware thread context.
type Context = cache.Context

// Protocol selects the simulated coherence protocol.
type Protocol = cache.Protocol

// The available coherence protocols.
const (
	// MESI is the Intel-style protocol the paper measured.
	MESI = cache.MESI
	// MOESI is the AMD-style protocol with an Owned state, which keeps
	// dirty sharing visible to the indicator longer.
	MOESI = cache.MOESI
)

// DefaultCacheConfig models a 4-core machine with 32 KiB 8-way private L1s
// over a 2 MiB shared inclusive LLC.
func DefaultCacheConfig() CacheConfig { return cache.DefaultConfig() }

// NewCache constructs a standalone cache hierarchy.
func NewCache(cfg CacheConfig) *CacheHierarchy { return cache.New(cfg) }

// PMUConfig programs the simulated performance counters.
type PMUConfig = perf.Config

// DemandConfig parameterizes the demand-driven controller.
type DemandConfig = demand.Config

// DefaultConfig is a 4-core machine with the paper's demand-driven policy
// at its default operating point.
func DefaultConfig() Config { return runner.DefaultConfig() }

// Run executes p under cfg. Runs are deterministic: identical inputs yield
// identical reports.
func Run(p *Program, cfg Config) (*Report, error) { return runner.Run(p, cfg) }

// RunPolicies executes p once and analyzes that one interleaving under
// each policy, with cfg otherwise unchanged. The reports come back in
// policy order, each equal to Run(p, cfg.WithPolicy(policy)).
func RunPolicies(p *Program, cfg Config, policies ...Policy) ([]*Report, error) {
	return runner.RunPolicies(p, cfg, policies...)
}

// Exploration aggregates a program's race behavior across many seeded
// interleavings.
type Exploration = runner.Exploration

// Explore runs p under cfg once per seed in [0, seeds) with seeded-random
// interleaving and aggregates the racy-address sets — the "run it until
// the bug shows" workflow. Seeds run concurrently, one worker per CPU.
func Explore(p *Program, cfg Config, seeds int) (*Exploration, error) {
	return runner.Explore(p, cfg, seeds)
}

// ExploreParallel is Explore with an explicit fan-out width (0 = one
// worker per CPU, 1 = serial). Aggregation is in seed order, so results
// are identical for any width.
func ExploreParallel(p *Program, cfg Config, seeds, workers int) (*Exploration, error) {
	return runner.ExploreWorkers(p, cfg, seeds, workers)
}

// Kernel is a bundled benchmark workload.
type Kernel = workloads.Kernel

// KernelConfig sizes a kernel build (threads, scale).
type KernelConfig = workloads.Config

// Kernels returns every bundled kernel: the Phoenix-like and PARSEC-like
// suites, HITM-characterization microbenchmarks, and racy regression
// kernels.
func Kernels() []Kernel { return workloads.All() }

// KernelByName finds a bundled kernel.
func KernelByName(name string) (Kernel, bool) { return workloads.ByName(name) }

// KernelSuite returns the kernels of one suite: "phoenix", "parsec",
// "micro", or "racy".
func KernelSuite(name string) []Kernel { return workloads.Suite(name) }

// Injection records one synthetic race spliced into a program.
type Injection = racefuzz.Injection

// InjectionConfig controls race injection.
type InjectionConfig = racefuzz.Config

// InjectRaces returns a copy of p with synthetic races spliced in, plus
// ground-truth records, for accuracy experiments.
func InjectRaces(p *Program, cfg InjectionConfig) (*Program, []Injection, error) {
	return racefuzz.Inject(p, cfg)
}

// Trace is a recorded run for offline replay.
type Trace = trace.Trace

// TraceRecorder records a run's event stream; install it in Config.Tracer.
type TraceRecorder = trace.Recorder

// NewTraceRecorder starts a recorder for the named program.
func NewTraceRecorder(name string) *TraceRecorder { return trace.NewRecorder(name) }

// ReplayTrace feeds a trace's analyzed events through a fresh detector and
// returns it, supporting analyze-many-times workflows over one execution.
func ReplayTrace(tr *Trace, opt DetectorOptions) *detector.Detector {
	return trace.Replay(tr, opt)
}

// TraceTimeline renders a trace as per-thread ASCII activity strips showing
// fast/analyzed spans, synchronization, and caught vs unobserved HITMs.
func TraceTimeline(tr *Trace, width int) string { return trace.Timeline(tr, width) }

// EventTracer records cycle-timestamped pipeline telemetry (HITM events,
// PMU overflows, mode transitions, race reports). Install one in
// Config.Trace; timestamps are simulated cycles, so traces are
// byte-deterministic. See internal/obs for the event taxonomy.
type EventTracer = obs.Tracer

// NewEventTracer returns an empty tracer for Config.Trace.
func NewEventTracer() *EventTracer { return obs.NewTracer() }

// TelemetryEvent is one recorded pipeline event.
type TelemetryEvent = obs.Event

// ModeSpan is one contiguous stretch of a thread's run in fast or analysis
// mode; Report.Timeline holds them when a tracer was installed.
type ModeSpan = obs.Span

// MetricsRegistry collects named counters, gauges, and histograms. Install
// one in Config.Metrics; counters and histograms may be shared across
// concurrent runs and still export deterministic totals.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry for Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WriteChromeTrace renders tracer events plus mode spans as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, program string, events []TelemetryEvent, spans []ModeSpan) error {
	return obs.WriteChromeTrace(w, program, events, spans)
}

// CostModel holds the cycle-cost constants slowdowns are computed from.
type CostModel = cost.Model

// CalibrateContinuous solves for the per-access analysis cost that makes
// continuous analysis of p cost target× native speed — the fitting step
// that anchors the simulator's constants to a published slowdown.
func CalibrateContinuous(p *Program, cfg Config, target float64) (CostModel, error) {
	return runner.CalibrateContinuous(p, cfg, target)
}
