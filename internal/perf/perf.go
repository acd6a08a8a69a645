// Package perf simulates the per-thread performance monitoring unit (PMU)
// the paper programs to watch for inter-thread sharing.
//
// On the paper's hardware, each thread context owns programmable counters
// that can count precise memory events (Intel PEBS); the tool programs a
// counter to count HITM coherence events with a "sample-after value" (SAV)
// so that every SAV-th event overflows the counter and raises an interrupt
// carrying a precise record of the triggering access. The interesting
// real-world warts are reproduced as knobs:
//
//   - SampleAfter > 1 means the first SAV-1 sharing events in a burst are
//     silent — a race in that window can be missed;
//   - Skid delays interrupt delivery by a number of retired operations, so
//     the handler runs after the racy access already retired;
//   - DropRate models non-precise counting losses (events the PMU misses
//     entirely), deterministic under a seed.
//
// The PMU subscribes to the cache hierarchy's event stream and delivers
// Samples to a handler installed by the demand-driven controller.
package perf

import (
	"fmt"
	"math/rand"

	"demandrace/internal/cache"
	"demandrace/internal/mem"
	"demandrace/internal/obs"
)

// Selector chooses which coherence events a counter counts.
type Selector uint8

const (
	// SelHITM counts all accesses served by a remote Modified line
	// (the paper's MEM_UNCORE_RETIRED...HITM-class event).
	SelHITM Selector = iota
	// SelHITMLoad counts only loads served by a remote Modified line.
	SelHITMLoad
	// SelHITMStore counts only stores served by a remote Modified line.
	SelHITMStore
	// SelInvalidation counts invalidations received by this context's core.
	SelInvalidation
	// SelWriteback counts dirty evictions by this context's core.
	SelWriteback
	// SelSharing counts HITM events plus received invalidations: the
	// broader (noisier, harder to miss) sharing signal used by the hybrid
	// trigger ablation.
	SelSharing
)

func (s Selector) String() string {
	switch s {
	case SelHITM:
		return "HITM"
	case SelHITMLoad:
		return "HITM_LOAD"
	case SelHITMStore:
		return "HITM_STORE"
	case SelInvalidation:
		return "INVALIDATION"
	case SelWriteback:
		return "WRITEBACK"
	case SelSharing:
		return "SHARING"
	}
	return fmt.Sprintf("Selector(%d)", uint8(s))
}

// matches reports whether a cache event is counted under the selector.
func (s Selector) matches(ev cache.Event) bool {
	switch s {
	case SelHITM:
		return ev.Kind == cache.EvHITM
	case SelHITMLoad:
		return ev.Kind == cache.EvHITM && !ev.Write
	case SelHITMStore:
		return ev.Kind == cache.EvHITM && ev.Write
	case SelInvalidation:
		return ev.Kind == cache.EvInvalidation
	case SelWriteback:
		return ev.Kind == cache.EvWriteback
	case SelSharing:
		return ev.Kind == cache.EvHITM || ev.Kind == cache.EvInvalidation
	}
	return false
}

// Sample is the PEBS-like precise record delivered on counter overflow.
type Sample struct {
	// Ctx is the hardware context whose counter overflowed.
	Ctx cache.Context
	// Counter is the index of the overflowing counter (0 is the primary
	// counter; extras follow Config.Extra order at index 1+).
	Counter int
	// Sel is the programmed event.
	Sel Selector
	// Line is the cache line of the event that caused the overflow.
	Line mem.Line
	// Write reports whether that event's access was a store.
	Write bool
	// SrcCore is the peer core that supplied/requested the line (-1 none).
	SrcCore int
	// Skidded reports whether delivery was delayed past the triggering op.
	Skidded bool
}

// Handler receives overflow samples.
type Handler func(Sample)

// CounterConfig programs one additional hardware counter.
type CounterConfig struct {
	// Sel is the counted event.
	Sel Selector
	// SampleAfter is this counter's overflow threshold (≥ 1).
	SampleAfter uint64
}

// MaxCounters matches the four programmable counters of the hardware the
// paper measured (one primary plus up to three extras).
const MaxCounters = 4

// Config programs the PMU identically on every context, mirroring how the
// tool programs the same event on every thread.
type Config struct {
	// Contexts is the number of hardware contexts to monitor.
	Contexts int
	// Sel is the programmed event selector.
	Sel Selector
	// SampleAfter is the overflow threshold: every SampleAfter-th counted
	// event raises an interrupt. 1 means interrupt on every event.
	SampleAfter uint64
	// Extra programs additional counters (counter indices 1..len(Extra)),
	// each with its own selector and threshold; all share the context's
	// enable bit, skid, and drop behavior.
	Extra []CounterConfig
	// Skid is the number of subsequently retired operations on the same
	// context before the interrupt is delivered. 0 means precise delivery.
	Skid int
	// DropRate ∈ [0,1) is the probability an event escapes counting.
	DropRate float64
	// Seed makes event dropping deterministic.
	Seed int64
}

// DefaultConfig programs HITM counting with interrupt-per-event, no skid,
// no drops — the idealized indicator.
func DefaultConfig(contexts int) Config {
	return Config{Contexts: contexts, Sel: SelHITM, SampleAfter: 1}
}

// Validate reports the first bound c breaks; New panics on the same checks.
func (c Config) Validate() error {
	if c.Contexts < 1 {
		return fmt.Errorf("perf: Contexts must be ≥ 1, got %d", c.Contexts)
	}
	if c.SampleAfter < 1 {
		return fmt.Errorf("perf: SampleAfter must be ≥ 1, got %d", c.SampleAfter)
	}
	if c.Skid < 0 {
		return fmt.Errorf("perf: Skid must be ≥ 0, got %d", c.Skid)
	}
	if c.DropRate < 0 || c.DropRate >= 1 {
		return fmt.Errorf("perf: DropRate must be in [0,1), got %g", c.DropRate)
	}
	if 1+len(c.Extra) > MaxCounters {
		return fmt.Errorf("perf: %d counters programmed, hardware has %d", 1+len(c.Extra), MaxCounters)
	}
	for i, ec := range c.Extra {
		if ec.SampleAfter < 1 {
			return fmt.Errorf("perf: extra counter %d: SampleAfter must be ≥ 1", i)
		}
	}
	return nil
}

// counters flattens the programming into an indexed list.
func (c Config) counters() []CounterConfig {
	out := make([]CounterConfig, 0, 1+len(c.Extra))
	out = append(out, CounterConfig{Sel: c.Sel, SampleAfter: c.SampleAfter})
	return append(out, c.Extra...)
}

// Stats aggregates PMU counters across contexts.
type Stats struct {
	// Seen is the number of events matching the selector that reached the
	// PMU (before drops).
	Seen uint64
	// Counted is Seen minus dropped events.
	Counted uint64
	// Dropped is the number of matching events lost to imprecise counting.
	Dropped uint64
	// Overflows is the number of counter overflows (== interrupts queued).
	Overflows uint64
	// Delivered is the number of interrupts actually delivered to the
	// handler (equals Overflows once skid queues drain).
	Delivered uint64
}

type pending struct {
	sample    Sample
	remaining int
}

type ctxState struct {
	// counts holds each programmed counter's partial count.
	counts  []uint64
	pending []pending
}

// PMU is the simulated performance monitoring unit. Not safe for concurrent
// use; the deterministic scheduler serializes all activity.
type PMU struct {
	cfg      Config
	counters []CounterConfig
	ctxs     []ctxState
	handler  Handler
	enabled  []bool
	rng      *rand.Rand
	stats    Stats
	// trace records overflow/skid/drop telemetry; nil disables recording.
	trace *obs.Tracer
}

// New constructs a PMU. It panics on invalid configuration.
func New(cfg Config) *PMU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &PMU{
		cfg:      cfg,
		counters: cfg.counters(),
		ctxs:     make([]ctxState, cfg.Contexts),
		enabled:  make([]bool, cfg.Contexts),
	}
	for i := range p.enabled {
		p.enabled[i] = true
		p.ctxs[i].counts = make([]uint64, len(p.counters))
	}
	if cfg.DropRate > 0 {
		p.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return p
}

// Config returns the PMU's programming.
func (p *PMU) Config() Config { return p.cfg }

// SetHandler installs the overflow interrupt handler.
func (p *PMU) SetHandler(h Handler) { p.handler = h }

// SetTracer installs the telemetry tracer (nil disables tracing).
func (p *PMU) SetTracer(t *obs.Tracer) { p.trace = t }

// SetEnabled turns counting on or off for one context. Disabled contexts
// neither count nor deliver; the demand controller disables the counter
// while a thread is already in analysis mode (it no longer needs the
// signal there).
func (p *PMU) SetEnabled(ctx cache.Context, on bool) {
	for i := range p.ctxs[ctx].counts {
		p.ctxs[ctx].counts[i] = 0
	}
	if !on {
		p.ctxs[ctx].pending = p.ctxs[ctx].pending[:0]
	}
	p.enabled[ctx] = on
}

// Enabled reports whether ctx's counter is armed.
func (p *PMU) Enabled(ctx cache.Context) bool { return p.enabled[ctx] }

// Stats returns a snapshot of the PMU counters.
func (p *PMU) Stats() Stats { return p.stats }

// Observe feeds one coherence event into the PMU. Install it as the cache
// hierarchy's event sink. Events are attributed to ev.Ctx, matching how the
// hardware attributes HITM to the requesting thread and invalidations to
// the victim.
func (p *PMU) Observe(ev cache.Event) {
	ctx := ev.Ctx
	if int(ctx) >= len(p.ctxs) || !p.enabled[ctx] {
		return
	}
	for ci, cc := range p.counters {
		if !cc.Sel.matches(ev) {
			continue
		}
		p.stats.Seen++
		if p.rng != nil && p.rng.Float64() < p.cfg.DropRate {
			p.stats.Dropped++
			p.trace.Emit(obs.KindSampleDropped, -1, int(ctx), uint64(ev.Line), int64(ci), "")
			continue
		}
		p.stats.Counted++
		st := &p.ctxs[ctx]
		st.counts[ci]++
		if st.counts[ci] < cc.SampleAfter {
			continue
		}
		st.counts[ci] = 0
		p.stats.Overflows++
		p.trace.Emit(obs.KindOverflow, -1, int(ctx), uint64(ev.Line), int64(ci), cc.Sel.String())
		s := Sample{
			Ctx:     ctx,
			Counter: ci,
			Sel:     cc.Sel,
			Line:    ev.Line,
			Write:   ev.Write,
			SrcCore: ev.Src,
			Skidded: p.cfg.Skid > 0,
		}
		if p.cfg.Skid == 0 {
			p.deliver(s)
			continue
		}
		st.pending = append(st.pending, pending{sample: s, remaining: p.cfg.Skid})
	}
}

// Retire advances ctx by one retired operation, draining any pending
// skidded interrupts whose delay has elapsed. The runner calls this once
// per executed op.
func (p *PMU) Retire(ctx cache.Context) {
	st := &p.ctxs[ctx]
	if len(st.pending) == 0 {
		return
	}
	out := st.pending[:0]
	for _, pd := range st.pending {
		pd.remaining--
		if pd.remaining <= 0 {
			p.deliver(pd.sample)
			continue
		}
		out = append(out, pd)
	}
	st.pending = out
}

// DrainAll delivers every pending interrupt regardless of remaining skid,
// used at thread exit so no queued sample is lost silently.
func (p *PMU) DrainAll() {
	for i := range p.ctxs {
		for _, pd := range p.ctxs[i].pending {
			p.deliver(pd.sample)
		}
		p.ctxs[i].pending = p.ctxs[i].pending[:0]
	}
}

func (p *PMU) deliver(s Sample) {
	p.stats.Delivered++
	skidded := int64(0)
	if s.Skidded {
		skidded = 1
	}
	p.trace.Emit(obs.KindSampleDelivered, -1, int(s.Ctx), uint64(s.Line), skidded, s.Sel.String())
	if p.handler != nil {
		p.handler(s)
	}
}
