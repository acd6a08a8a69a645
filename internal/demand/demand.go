// Package demand implements the paper's contribution: the demand-driven
// analysis controller that decides, per thread and per operation, whether
// the software race detector observes a memory access.
//
// Each thread is in one of two execution modes:
//
//   - fast: memory accesses run uninstrumented; only synchronization
//     operations are analyzed (they are rare, and losing them would corrupt
//     the detector's happens-before state);
//   - analysis: every access is analyzed, as in a continuous-analysis tool.
//
// Threads start in fast mode. A PMU overflow sample (a HITM, under the
// default programming) flips the sample's scope of threads into analysis
// mode; a thread drops back to fast mode after executing QuietOps memory
// operations without any fresh sharing signal. Mode transitions model the
// cost of patching instrumentation in and out, which the cost model charges.
//
// The controller never inspects detector state and the detector never sees
// the controller: the paper's accuracy loss is exactly the set of accesses
// the controller withheld.
package demand

import (
	"fmt"
	"math/rand"

	"demandrace/internal/cache"
	"demandrace/internal/mem"
	"demandrace/internal/obs"
	"demandrace/internal/pageprot"
	"demandrace/internal/perf"
	"demandrace/internal/program"
	"demandrace/internal/vclock"
	"demandrace/internal/watchpoint"
)

// PolicyKind selects the gating strategy.
type PolicyKind uint8

const (
	// Off disables all analysis, including synchronization tracking. The
	// native-execution baseline.
	Off PolicyKind = iota
	// Continuous analyzes every operation: the Inspector-XE-style
	// always-on tool the paper compares against.
	Continuous
	// SyncOnly analyzes synchronization but never data accesses: the lower
	// bound on any demand-driven tool's overhead.
	SyncOnly
	// HITMDemand is the paper's design: data-access analysis is enabled by
	// HITM samples and decays after a quiet period.
	HITMDemand
	// Hybrid triggers on the broader sharing signal (HITM plus received
	// invalidations), trading extra enables for fewer missed first events.
	Hybrid
	// Sampling analyzes each data access independently with probability
	// SampleRate (LiteRace/Pacer-style blind sampling): the software-only
	// baseline the paper's hardware-triggered design is an answer to. It
	// needs no PMU, but catching a race requires sampling *both* sides of
	// the pair, so its recall falls quadratically with the rate while the
	// demand policy concentrates its budget exactly where sharing happens.
	Sampling
	// WatchDemand is the finer-grained mechanism from the same research
	// line: a HITM sample arms a hardware watchpoint (debug register) on
	// the shared *line* instead of flipping whole threads into analysis
	// mode, and only accesses to watched lines are analyzed. Near-zero
	// overhead when the active shared set fits the register file
	// (WatchCapacity, default 4), capacity thrash and lost coverage when
	// it does not.
	WatchDemand
	// PageDemand replaces the PMU signal with page-protection faults: the
	// pre-perf-counter software mechanism. A cross-thread touch of a
	// protected 4 KiB page faults (expensive), enables analysis like a
	// HITM sample would, and unprotects the page until the next periodic
	// re-protection sweep. Coarse granularity makes co-located private
	// data look shared; the fault and sweep costs are the price of not
	// having hardware events.
	PageDemand
)

func (k PolicyKind) String() string {
	switch k {
	case Off:
		return "off"
	case Continuous:
		return "continuous"
	case SyncOnly:
		return "sync-only"
	case HITMDemand:
		return "hitm-demand"
	case Hybrid:
		return "hybrid"
	case Sampling:
		return "sampling"
	case WatchDemand:
		return "watch-demand"
	case PageDemand:
		return "page-demand"
	}
	return fmt.Sprintf("PolicyKind(%d)", uint8(k))
}

// Demand reports whether the policy gates analysis on PMU samples.
func (k PolicyKind) Demand() bool {
	return k == HITMDemand || k == Hybrid || k == WatchDemand
}

// Selector returns the PMU event programming the policy needs.
func (k PolicyKind) Selector() perf.Selector {
	if k == Hybrid {
		return perf.SelSharing
	}
	return perf.SelHITM
}

// Policies lists every PolicyKind in definition order, for CLI/API surfaces
// that enumerate or parse them.
func Policies() []PolicyKind {
	return []PolicyKind{Off, Continuous, SyncOnly, HITMDemand, Hybrid, Sampling, WatchDemand, PageDemand}
}

// ParsePolicy inverts PolicyKind.String.
func ParsePolicy(s string) (PolicyKind, error) {
	for _, k := range Policies() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (off|continuous|sync-only|hitm-demand|hybrid|sampling|watch-demand|page-demand)", s)
}

// Scope chooses which threads a sample flips into analysis mode.
type Scope uint8

const (
	// ScopeGlobal enables analysis on every thread (the default: sharing
	// phases tend to be program-wide, and the *first* racy access was by
	// some other thread that must start observing too).
	ScopeGlobal Scope = iota
	// ScopePair enables the sampled thread and the threads on the peer
	// core that supplied the line.
	ScopePair
	// ScopeSelf enables only the thread that received the sample.
	ScopeSelf
)

func (s Scope) String() string {
	switch s {
	case ScopeGlobal:
		return "global"
	case ScopePair:
		return "pair"
	case ScopeSelf:
		return "self"
	}
	return fmt.Sprintf("Scope(%d)", uint8(s))
}

// ParseScope inverts Scope.String.
func ParseScope(s string) (Scope, error) {
	for _, sc := range []Scope{ScopeGlobal, ScopePair, ScopeSelf} {
		if sc.String() == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scope %q (global|pair|self)", s)
}

// Config parameterizes the controller.
type Config struct {
	Kind  PolicyKind
	Scope Scope
	// QuietOps is the number of memory operations a thread executes
	// without a fresh sharing sample before dropping back to fast mode.
	// Zero selects DefaultQuietOps.
	QuietOps uint64
	// SampleRate is the per-access analysis probability for the Sampling
	// policy, in (0,1]. Ignored by other policies.
	SampleRate float64
	// Seed drives the Sampling policy's random choices.
	Seed int64
	// WatchCapacity is the per-context watchpoint register count for the
	// WatchDemand policy. Zero selects watchpoint.DefaultCapacity.
	WatchCapacity int
	// Adaptive lets HITMDemand/Hybrid tune each thread's quiet window at
	// run time: a re-enable arriving soon after a decay means the window
	// was too short (double it, up to 32× the base); a long stretch of
	// fast execution before the next enable shrinks it back toward the
	// base. This removes the one hand-tuned constant of the design.
	Adaptive bool
	// ReprotectEvery is the PageDemand policy's re-protection sweep
	// interval in accesses. Zero selects pageprot.DefaultReprotectEvery.
	ReprotectEvery uint64
	// SyncTrigger additionally enables analysis (for HITMDemand/Hybrid)
	// whenever a thread executes a synchronization operation: the
	// heuristic that races cluster around critical sections and
	// handoffs. It buys recall on sharing the cache misses (evicted, SMT,
	// prefetched) at the cost of analysis windows after every sync op.
	SyncTrigger bool
}

// Validate reports the first bound c breaks; New panics on the same checks.
func (c Config) Validate() error {
	if c.Kind == Sampling && (c.SampleRate <= 0 || c.SampleRate > 1) {
		return fmt.Errorf("demand: Sampling policy needs SampleRate in (0,1], got %g", c.SampleRate)
	}
	return nil
}

// DefaultQuietOps balances staying enabled across a sharing phase against
// reverting promptly when a phase ends. The value is proportioned to this
// simulator's kernel sizes (tens of thousands of ops); the paper's
// equivalent knob is proportionally larger because its programs run
// billions of instructions.
const DefaultQuietOps = 250

// DefaultConfig is the paper's design at its default operating point.
func DefaultConfig() Config {
	return Config{Kind: HITMDemand, Scope: ScopeGlobal, QuietOps: DefaultQuietOps}
}

// Stats describes controller activity over one run.
type Stats struct {
	// Samples is the number of PMU samples the controller received.
	Samples uint64
	// EnableTransitions counts fast→analysis flips (per thread).
	EnableTransitions uint64
	// DisableTransitions counts analysis→fast flips.
	DisableTransitions uint64
	// MemAnalyzed / MemSkipped partition data accesses.
	MemAnalyzed uint64
	MemSkipped  uint64
	// SyncAnalyzed counts analyzed synchronization ops.
	SyncAnalyzed uint64
	// QuietGrow / QuietShrink count adaptive quiet-window adjustments.
	QuietGrow   uint64
	QuietShrink uint64
}

// AnalyzedFraction is the fraction of data accesses that were analyzed.
func (s Stats) AnalyzedFraction() float64 {
	total := s.MemAnalyzed + s.MemSkipped
	if total == 0 {
		return 0
	}
	return float64(s.MemAnalyzed) / float64(total)
}

type threadState struct {
	analyzing bool
	// memAnalyzed / memSkipped count this thread's data accesses by
	// outcome, for per-thread residency reporting.
	memAnalyzed uint64
	memSkipped  uint64
	// quiet counts memory ops executed since the last sharing signal while
	// in analysis mode.
	quiet uint64
	// quietLimit is the thread's current decay window (== Config.QuietOps
	// unless Adaptive).
	quietLimit uint64
	// fastOps counts memory ops executed in fast mode since the last
	// decay, for the adaptive controller's feedback.
	fastOps uint64
}

// Controller gates the detector. Not safe for concurrent use.
type Controller struct {
	cfg     Config
	threads []threadState
	// threadsOfCtx maps a hardware context to the threads placed on it.
	threadsOfCtx map[cache.Context][]vclock.TID
	// threadsOfCore maps a core to its threads, for ScopePair.
	threadsOfCore map[int][]vclock.TID
	coreOf        func(cache.Context) int
	ctxOf         func(vclock.TID) cache.Context
	// counterCtl toggles a hardware context's PMU counter. While every
	// thread of a context is in analysis mode its counter is disabled —
	// the signal is redundant there and interrupts are pure overhead — and
	// it is re-armed when a thread decays back to fast mode. This mirrors
	// the paper's design.
	counterCtl func(ctx cache.Context, enabled bool)
	// rng drives the Sampling policy's per-access coin flips.
	rng *rand.Rand
	// watch holds the per-context watchpoint units for WatchDemand.
	watch map[cache.Context]*watchpoint.Unit
	// pages is the protection tracker for PageDemand.
	pages *pageprot.Tracker
	// trace records mode transitions and counter toggles; nil disables
	// recording.
	trace *obs.Tracer
	stats Stats
}

// New builds a controller for numThreads threads, where ctxOf gives each
// thread's hardware context and coreOf maps contexts to cores.
func New(cfg Config, numThreads int, ctxOf func(vclock.TID) cache.Context, coreOf func(cache.Context) int) *Controller {
	if cfg.QuietOps == 0 {
		cfg.QuietOps = DefaultQuietOps
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{
		cfg:           cfg,
		threads:       make([]threadState, numThreads),
		threadsOfCtx:  make(map[cache.Context][]vclock.TID),
		threadsOfCore: make(map[int][]vclock.TID),
		coreOf:        coreOf,
		ctxOf:         ctxOf,
	}
	for i := 0; i < numThreads; i++ {
		t := vclock.TID(i)
		ctx := ctxOf(t)
		c.threadsOfCtx[ctx] = append(c.threadsOfCtx[ctx], t)
		core := coreOf(ctx)
		c.threadsOfCore[core] = append(c.threadsOfCore[core], t)
	}
	for i := range c.threads {
		c.threads[i].quietLimit = cfg.QuietOps
	}
	// Continuous analysis is permanently on.
	if cfg.Kind == Continuous {
		for i := range c.threads {
			c.threads[i].analyzing = true
		}
	}
	if cfg.Kind == Sampling {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	if cfg.Kind == WatchDemand {
		c.watch = make(map[cache.Context]*watchpoint.Unit, len(c.threadsOfCtx))
		for ctx := range c.threadsOfCtx {
			c.watch[ctx] = watchpoint.New(cfg.WatchCapacity)
		}
	}
	if cfg.Kind == PageDemand {
		c.pages = pageprot.New(pageprot.Config{ReprotectEvery: cfg.ReprotectEvery})
	}
	return c
}

// PageTracker exposes the page-protection machinery (nil unless the policy
// is PageDemand), for tests and reports.
func (c *Controller) PageTracker() *pageprot.Tracker { return c.pages }

// WatchUnit exposes a context's watchpoint register file (nil unless the
// policy is WatchDemand), for tests and reports.
func (c *Controller) WatchUnit(ctx cache.Context) *watchpoint.Unit {
	return c.watch[ctx]
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetCounterControl installs the callback that arms/disarms a context's
// PMU counter (typically perf.PMU.SetEnabled). Optional.
func (c *Controller) SetCounterControl(fn func(ctx cache.Context, enabled bool)) {
	c.counterCtl = fn
}

// SetTracer installs the telemetry tracer (nil disables tracing).
func (c *Controller) SetTracer(t *obs.Tracer) { c.trace = t }

// syncCounter updates the PMU arming of thread t's context after a mode
// change: disabled iff every thread on the context is analyzing.
func (c *Controller) syncCounter(t vclock.TID) {
	if c.counterCtl == nil {
		return
	}
	ctx := c.ctxOf(t)
	allAnalyzing := true
	for _, peer := range c.threadsOfCtx[ctx] {
		if !c.threads[peer].analyzing {
			allAnalyzing = false
			break
		}
	}
	enabled := int64(0)
	if !allAnalyzing {
		enabled = 1
	}
	c.trace.Emit(obs.KindCounterToggle, int(t), int(ctx), 0, enabled, "")
	c.counterCtl(ctx, !allAnalyzing)
}

// NoteSharing informs the controller that thread t's analyzed access was
// itself cache-visible sharing (a HITM observed by the instrumented code,
// not the PMU). It refreshes t's quiet timer, keeping analysis alive
// through a sharing phase even though the context's counter is disarmed.
func (c *Controller) NoteSharing(t vclock.TID) {
	if !c.cfg.Kind.Demand() {
		return
	}
	st := &c.threads[t]
	if st.analyzing {
		st.quiet = 0
	}
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Analyzing reports thread t's current mode.
func (c *Controller) Analyzing(t vclock.TID) bool { return c.threads[t].analyzing }

// OnSample handles a PMU overflow: install as the PMU handler. It flips the
// configured scope of threads into analysis mode and refreshes their quiet
// timers.
func (c *Controller) OnSample(s perf.Sample) {
	if !c.cfg.Kind.Demand() {
		return
	}
	c.stats.Samples++
	if c.cfg.Kind == WatchDemand {
		c.armWatch(s)
		return
	}
	switch c.cfg.Scope {
	case ScopeGlobal:
		for i := range c.threads {
			c.enable(vclock.TID(i))
		}
	case ScopePair:
		for _, t := range c.threadsOfCtx[s.Ctx] {
			c.enable(t)
		}
		if s.SrcCore >= 0 {
			for _, t := range c.threadsOfCore[s.SrcCore] {
				c.enable(t)
			}
		}
	case ScopeSelf:
		for _, t := range c.threadsOfCtx[s.Ctx] {
			c.enable(t)
		}
	}
}

// armWatch points the scope's watchpoint units at the sampled line.
func (c *Controller) armWatch(s perf.Sample) {
	arm := func(ctx cache.Context) {
		u := c.watch[ctx]
		if u == nil {
			return
		}
		if !u.Watching(s.Line) {
			c.stats.EnableTransitions++
			c.trace.Emit(obs.KindWatchArm, -1, int(ctx), uint64(s.Line), 0, "")
		}
		u.Watch(s.Line)
	}
	switch c.cfg.Scope {
	case ScopeGlobal:
		for ctx := range c.watch {
			arm(ctx)
		}
	case ScopePair:
		arm(s.Ctx)
		if s.SrcCore >= 0 {
			for ctx := range c.watch {
				if c.coreOf(ctx) == s.SrcCore {
					arm(ctx)
				}
			}
		}
	case ScopeSelf:
		arm(s.Ctx)
	}
}

func (c *Controller) enable(t vclock.TID) {
	st := &c.threads[t]
	st.quiet = 0
	if !st.analyzing {
		if c.cfg.Adaptive {
			c.adapt(st)
		}
		st.analyzing = true
		st.fastOps = 0
		c.stats.EnableTransitions++
		c.trace.Emit(obs.KindModeEnable, int(t), int(c.ctxOf(t)), 0, 0, "")
		c.syncCounter(t)
	}
}

// adapt retunes a thread's quiet window at the moment it re-enters
// analysis mode, using how long it ran fast as the feedback signal.
func (c *Controller) adapt(st *threadState) {
	const maxFactor = 32
	if st.fastOps == 0 {
		// First enable of the run: nothing to learn from yet.
		return
	}
	if st.fastOps < st.quietLimit {
		// Sharing resumed before a full quiet window elapsed in fast mode:
		// the previous decay was premature.
		if st.quietLimit < c.cfg.QuietOps*maxFactor {
			st.quietLimit *= 2
			c.stats.QuietGrow++
		}
		return
	}
	if st.quietLimit > c.cfg.QuietOps {
		st.quietLimit /= 2
		c.stats.QuietShrink++
	}
}

// ShouldAnalyze decides whether the detector observes op executed by t, and
// accounts the decision. Call exactly once per executed op.
func (c *Controller) ShouldAnalyze(t vclock.TID, op program.Op) bool {
	if c.cfg.Kind == Off {
		return false
	}
	if op.Kind.IsSync() {
		c.stats.SyncAnalyzed++
		if c.cfg.SyncTrigger && (c.cfg.Kind == HITMDemand || c.cfg.Kind == Hybrid) {
			c.enable(t)
		}
		return true
	}
	if !op.Kind.IsMemory() {
		// Compute ops are never analyzed; they only advance time.
		return false
	}
	st := &c.threads[t]
	analyze := false
	switch c.cfg.Kind {
	case Continuous:
		analyze = true
	case SyncOnly:
		analyze = false
	case Sampling:
		analyze = c.rng.Float64() < c.cfg.SampleRate
	case WatchDemand:
		u := c.watch[c.ctxOf(t)]
		analyze = u != nil && u.Check(mem.LineOf(op.Addr))
		if u != nil {
			u.Tick(c.cfg.QuietOps)
		}
	case PageDemand:
		if c.pages.Access(t, op.Addr) {
			// Protection fault: a sharing indication, handled like a PMU
			// sample under the configured scope.
			c.stats.Samples++
			c.trace.Emit(obs.KindPageFault, int(t), int(c.ctxOf(t)), uint64(op.Addr), 0, "")
			switch c.cfg.Scope {
			case ScopeGlobal:
				for i := range c.threads {
					c.enable(vclock.TID(i))
				}
			default:
				c.enable(t)
			}
		}
		analyze = st.analyzing
		if st.analyzing {
			if c.pages.Shared(op.Addr) {
				// Touching a known-shared page keeps analysis alive, the
				// page analogue of observing a HITM while instrumented.
				st.quiet = 0
			}
			st.quiet++
			if st.quiet > st.quietLimit {
				st.analyzing = false
				st.quiet = 0
				c.stats.DisableTransitions++
				c.trace.Emit(obs.KindModeDecay, int(t), int(c.ctxOf(t)), 0, 0, "")
			}
		}
	case HITMDemand, Hybrid:
		analyze = st.analyzing
		if st.analyzing {
			st.quiet++
			if st.quiet > st.quietLimit {
				st.analyzing = false
				st.quiet = 0
				st.fastOps = 0
				c.stats.DisableTransitions++
				c.trace.Emit(obs.KindModeDecay, int(t), int(c.ctxOf(t)), 0, 0, "")
				c.syncCounter(t)
			}
		} else {
			st.fastOps++
		}
	}
	if analyze {
		c.stats.MemAnalyzed++
		st.memAnalyzed++
	} else {
		c.stats.MemSkipped++
		st.memSkipped++
	}
	return analyze
}

// ThreadResidency describes one thread's analysis-mode residency.
type ThreadResidency struct {
	TID vclock.TID
	// MemAnalyzed and MemSkipped partition the thread's data accesses.
	MemAnalyzed uint64
	MemSkipped  uint64
}

// AnalyzedFraction is the fraction of this thread's accesses analyzed.
func (t ThreadResidency) AnalyzedFraction() float64 {
	total := t.MemAnalyzed + t.MemSkipped
	if total == 0 {
		return 0
	}
	return float64(t.MemAnalyzed) / float64(total)
}

// Residency returns per-thread analysis residency, indexed by thread ID.
func (c *Controller) Residency() []ThreadResidency {
	out := make([]ThreadResidency, len(c.threads))
	for i := range c.threads {
		out[i] = ThreadResidency{
			TID:         vclock.TID(i),
			MemAnalyzed: c.threads[i].memAnalyzed,
			MemSkipped:  c.threads[i].memSkipped,
		}
	}
	return out
}
