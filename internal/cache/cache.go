// Package cache simulates a multicore cache hierarchy with MESI coherence.
//
// This is the hardware substrate the paper relies on: on real Intel parts a
// load or store that misses the local cache and finds the line Modified in
// another core's cache raises a HITM ("hit modified") coherence event, which
// the PMU can count. HITM events are the paper's demand signal for
// inter-thread data sharing. The simulator reproduces the properties the
// paper depends on and the ones that limit it:
//
//   - a HITM fires exactly when an access hits a remote Modified line, so it
//     witnesses cache-visible W→R and W→W sharing;
//   - sharing is tracked at line granularity, so distinct variables on the
//     same line produce HITM events (false sharing) that the software
//     detector will not confirm;
//   - evicting a Modified line writes it back to memory, after which a
//     consumer's miss is served from memory with no HITM — evictions hide
//     sharing from the indicator;
//   - SMT contexts share an L1, so producer/consumer pairs co-scheduled on
//     one core communicate without any coherence traffic and are invisible.
//
// The model is a private set-associative L1 per core over an implicit shared
// last level; snooping is modeled as a directory lookup across peer L1s.
package cache

import (
	"fmt"

	"demandrace/internal/mem"
)

// State is a MESI line state.
type State uint8

const (
	// Invalid means the line is not present.
	Invalid State = iota
	// Shared means a clean copy that other caches may also hold.
	Shared
	// Exclusive means the only copy, clean.
	Exclusive
	// Modified means the only copy, dirty.
	Modified
	// Owned (MOESI protocol only) means a dirty copy whose data other
	// caches may hold Shared; the owner supplies fills and is responsible
	// for the eventual writeback.
	Owned
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Protocol selects the coherence protocol.
type Protocol uint8

const (
	// MESI is the Intel-style protocol the paper measured: a remote read
	// of a Modified line demotes it to Shared and writes the data back
	// (into the LLC when present), so dirty sharing is visible to the
	// HITM indicator exactly once per producer write.
	MESI Protocol = iota
	// MOESI is the AMD-style protocol with an Owned state: the dirty line
	// stays in the owner's cache and keeps supplying fills, so *every new
	// consumer* takes a dirty intervention — the indicator sees strictly
	// more sharing events than under MESI. The protocol ablation (Tab.6)
	// quantifies the difference.
	MOESI
)

func (p Protocol) String() string {
	switch p {
	case MESI:
		return "MESI"
	case MOESI:
		return "MOESI"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// Context identifies a hardware thread context. Contexts [k*SMT, (k+1)*SMT)
// share core k's L1 cache.
type Context int

// Config sizes the simulated hierarchy.
type Config struct {
	// Cores is the number of physical cores (private L1s). Must be ≥ 1.
	Cores int
	// SMT is the number of hardware contexts per core. Must be ≥ 1.
	SMT int
	// L1Sets and L1Ways size each private L1. A 32 KiB 8-way L1 with 64-byte
	// lines is Sets=64, Ways=8.
	L1Sets int
	L1Ways int
	// L2Sets and L2Ways size the shared inclusive last-level cache. Both
	// zero disables the LLC (misses that no peer serves go straight to
	// memory).
	L2Sets int
	L2Ways int
	// Protocol selects MESI (default, Intel-style) or MOESI (AMD-style
	// Owned state).
	Protocol Protocol
	// NextLinePrefetch enables a next-line hardware prefetcher: every
	// demand L1 miss also pulls line+1. Prefetch transfers are not
	// attributed to any retired instruction, so a prefetch that drains a
	// peer's Modified line raises no PMU-visible HITM — and the demand
	// access that later hits the prefetched line is silent too. This is
	// the prefetcher blind spot the paper's counter characterization
	// warns about.
	NextLinePrefetch bool
}

// DefaultConfig models a 4-core machine with 32 KiB 8-way private L1s over
// a 2 MiB 16-way shared inclusive LLC, no SMT — the class of hardware the
// paper measured.
func DefaultConfig() Config {
	return Config{Cores: 4, SMT: 1, L1Sets: 64, L1Ways: 8, L2Sets: 2048, L2Ways: 16}
}

// HasLLC reports whether the configuration includes a last-level cache.
func (c Config) HasLLC() bool { return c.L2Sets > 0 }

func (c Config) validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("cache: Cores must be ≥ 1, got %d", c.Cores)
	}
	if c.SMT < 1 {
		return fmt.Errorf("cache: SMT must be ≥ 1, got %d", c.SMT)
	}
	if c.L1Sets < 1 || c.L1Sets&(c.L1Sets-1) != 0 {
		return fmt.Errorf("cache: L1Sets must be a positive power of two, got %d", c.L1Sets)
	}
	if c.L1Ways < 1 {
		return fmt.Errorf("cache: L1Ways must be ≥ 1, got %d", c.L1Ways)
	}
	if (c.L2Sets == 0) != (c.L2Ways == 0) {
		return fmt.Errorf("cache: L2Sets and L2Ways must both be zero or both be set (%d/%d)",
			c.L2Sets, c.L2Ways)
	}
	if c.L2Sets > 0 && c.L2Sets&(c.L2Sets-1) != 0 {
		return fmt.Errorf("cache: L2Sets must be a power of two, got %d", c.L2Sets)
	}
	if c.L2Sets > 0 && c.L2Sets*c.L2Ways < c.Cores*c.L1Sets*c.L1Ways {
		return fmt.Errorf("cache: inclusive LLC (%d lines) smaller than combined L1s (%d lines)",
			c.L2Sets*c.L2Ways, c.Cores*c.L1Sets*c.L1Ways)
	}
	return nil
}

// Contexts returns the total number of hardware contexts.
func (c Config) Contexts() int { return c.Cores * c.SMT }

// EventKind classifies coherence events an access can raise.
type EventKind uint8

const (
	// EvHITM fires when an access is served by a remote Modified line:
	// cache-visible inter-thread sharing. This is the paper's demand signal.
	EvHITM EventKind = iota
	// EvHitShared fires when a miss is served by a remote clean copy.
	EvHitShared
	// EvInvalidation fires at a core whose copy is invalidated by a remote
	// store (request-for-ownership).
	EvInvalidation
	// EvWriteback fires when a Modified line is evicted to memory. After a
	// writeback, subsequent consumers miss to memory with no HITM.
	EvWriteback
)

func (k EventKind) String() string {
	switch k {
	case EvHITM:
		return "HITM"
	case EvHitShared:
		return "HIT_SHARED"
	case EvInvalidation:
		return "INVALIDATION"
	case EvWriteback:
		return "WRITEBACK"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one coherence event raised by an access.
type Event struct {
	Kind EventKind
	// Ctx is the hardware context the event is attributed to. For HITM and
	// HitShared this is the requester; for Invalidation it is the victim;
	// for Writeback it is the evicting context.
	Ctx Context
	// Src is the peer core involved (the core that supplied the line for
	// HITM/HitShared, the requester core for Invalidation). -1 if none.
	Src int
	// Line is the cache line involved.
	Line mem.Line
	// Write reports whether the triggering access was a store.
	Write bool
}

// Result summarizes one access.
type Result struct {
	// HitL1 reports whether the access hit the local L1.
	HitL1 bool
	// HITM reports whether the access was served by a remote Modified line.
	HITM bool
	// SrcCore is the peer core that supplied the line (-1 if memory/local).
	SrcCore int
	// Latency is the modeled access latency in cycles.
	Latency uint64
}

// Latencies in cycles for the simple timing model. These feed the cost
// model's memory component; the instrumentation cost dominates slowdowns,
// matching the paper's observation that analysis cost, not cache behavior,
// drives tool overhead.
const (
	LatL1Hit     = 1
	LatPeerCache = 12
	LatLLC       = 20
	LatMemory    = 60
)

// Stats aggregates per-hierarchy counters.
type Stats struct {
	Accesses      uint64
	Loads         uint64
	Stores        uint64
	L1Hits        uint64
	L1Misses      uint64
	HITM          uint64
	HITMLoad      uint64
	HITMStore     uint64
	PeerClean     uint64
	LLCHits       uint64
	MemoryFills   uint64
	Invalidations uint64
	// Prefetches counts next-line prefetch fills; PrefetchedHITM of those
	// drained a peer's Modified line *without* raising a PMU event.
	Prefetches     uint64
	PrefetchedHITM uint64
	// Writebacks counts dirty L1 evictions (absorbed by the LLC when one
	// is configured, otherwise written to memory).
	Writebacks uint64
	Evictions  uint64
	// L2Evictions and L2Writebacks count LLC victimizations and dirty LLC
	// lines written back to memory.
	L2Evictions  uint64
	L2Writebacks uint64
}

type way struct {
	line  mem.Line
	state State
	// lru is the global access counter value of the most recent touch;
	// higher is more recent.
	lru uint64
}

// l1 is one core's private cache. Every set is a window of length 0 and
// capacity ways onto one backing array, so a set fills without
// reallocating and a core's L1 costs two allocations.
type l1 struct {
	sets [][]way
}

func newL1(sets, ways int) l1 {
	backing := make([]way, sets*ways)
	c := l1{sets: make([][]way, sets)}
	for s := range c.sets {
		c.sets[s] = backing[s*ways : s*ways : (s+1)*ways]
	}
	return c
}

// CoreStats is one core's access profile.
type CoreStats struct {
	Hits   uint64
	Misses uint64
	// HITMIn counts dirty interventions this core's accesses received;
	// HITMOut counts dirty lines this core supplied to peers. A high
	// HITMOut core is the producer side of the sharing the demand signal
	// reacts to.
	HITMIn  uint64
	HITMOut uint64
}

// Hierarchy is the simulated multicore cache system. It is not safe for
// concurrent use; the deterministic scheduler serializes accesses.
type Hierarchy struct {
	cfg     Config
	cores   []l1
	llc     *llc // nil when the configuration has no LLC
	tick    uint64
	stats   Stats
	perCore []CoreStats
	// coreOf[ctx] is context ctx's core; its length is the context count.
	coreOf []int
	// l1Mask and l2Mask turn a line into its L1 and LLC set index; validate
	// requires both set counts to be powers of two.
	l1Mask, l2Mask uint64
	// sink receives every coherence event in the order it is raised; nil
	// discards them. The runner installs its PMU fan-out here.
	sink func(Event)
}

// New constructs a hierarchy. It panics on an invalid configuration, since
// configurations are compile-time constants in practice.
func New(cfg Config) *Hierarchy {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:     cfg,
		coreOf:  make([]int, cfg.Contexts()),
		l1Mask:  uint64(cfg.L1Sets - 1),
		cores:   make([]l1, cfg.Cores),
		perCore: make([]CoreStats, cfg.Cores),
	}
	for ctx := range h.coreOf {
		h.coreOf[ctx] = ctx / cfg.SMT
	}
	for i := range h.cores {
		h.cores[i] = newL1(cfg.L1Sets, cfg.L1Ways)
	}
	if cfg.HasLLC() {
		h.l2Mask = uint64(cfg.L2Sets - 1)
		h.llc = &llc{sets: make([][]llcLine, cfg.L2Sets)}
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// SetEventSink installs fn to observe every coherence event as it happens.
func (h *Hierarchy) SetEventSink(fn func(Event)) { h.sink = fn }

// Stats returns a snapshot of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// PerCoreStats returns each core's access profile.
func (h *Hierarchy) PerCoreStats() []CoreStats {
	return append([]CoreStats(nil), h.perCore...)
}

// CoreOf maps a hardware context to its physical core.
func (h *Hierarchy) CoreOf(ctx Context) int { return h.coreOf[ctx] }

func (h *Hierarchy) setIndex(l mem.Line) int { return int(uint64(l) & h.l1Mask) }

func (h *Hierarchy) emit(ev Event) {
	if h.sink != nil {
		h.sink(ev)
	}
}

// lookup returns the way holding line in core's L1, or nil.
func (h *Hierarchy) lookup(core int, l mem.Line) *way {
	set := h.cores[core].sets[h.setIndex(l)]
	for i := range set {
		if set[i].state != Invalid && set[i].line == l {
			return &set[i]
		}
	}
	return nil
}

// install places line with state into core's L1, evicting LRU if needed.
// Displacing a dirty line emits a writeback event.
func (h *Hierarchy) install(core int, l mem.Line, st State, ctx Context) {
	idx := h.setIndex(l)
	set := h.cores[core].sets[idx]
	// Reuse an invalid way if present.
	for i := range set {
		if set[i].state == Invalid {
			set[i] = way{line: l, state: st, lru: h.tick}
			return
		}
	}
	if len(set) < h.cfg.L1Ways {
		h.cores[core].sets[idx] = append(set, way{line: l, state: st, lru: h.tick})
		return
	}
	// Evict the least recently used way.
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	h.stats.Evictions++
	if set[victim].state == Modified || set[victim].state == Owned {
		h.stats.Writebacks++
		h.emit(Event{Kind: EvWriteback, Ctx: ctx, Src: -1, Line: set[victim].line})
		if h.llc != nil {
			// The dirty line lands in the shared LLC; later consumers get
			// an ordinary LLC hit with no HITM — the blind spot persists
			// even though the data never reached memory.
			h.llcWriteback(set[victim].line, ctx)
		}
	}
	set[victim] = way{line: l, state: st, lru: h.tick}
}

// Access performs a load (write=false) or store (write=true) by context ctx
// at address addr and returns the access result. This is the only mutating
// entry point.
func (h *Hierarchy) Access(ctx Context, addr mem.Addr, write bool) Result {
	if uint(ctx) >= uint(len(h.coreOf)) {
		panic(fmt.Sprintf("cache: context %d out of range [0,%d)", ctx, len(h.coreOf)))
	}
	core := h.coreOf[ctx]
	h.tick++
	h.stats.Accesses++
	if write {
		h.stats.Stores++
	} else {
		h.stats.Loads++
	}
	l := mem.LineOf(addr)
	res := Result{SrcCore: -1}

	if w := h.lookup(core, l); w != nil {
		w.lru = h.tick
		if !write {
			// Load hit in any valid state.
			h.stats.L1Hits++
			h.perCore[core].Hits++
			res.HitL1 = true
			res.Latency = LatL1Hit
			return res
		}
		switch w.state {
		case Modified:
			h.stats.L1Hits++
			h.perCore[core].Hits++
			res.HitL1 = true
			res.Latency = LatL1Hit
			return res
		case Exclusive:
			// Silent upgrade E→M: no bus traffic.
			w.state = Modified
			h.stats.L1Hits++
			h.perCore[core].Hits++
			res.HitL1 = true
			res.Latency = LatL1Hit
			return res
		case Shared, Owned:
			// Upgrade S/O→M: invalidate peers. Counted as a hit (data is
			// local) but raises invalidations.
			h.invalidatePeers(core, l, ctx)
			w.state = Modified
			h.stats.L1Hits++
			h.perCore[core].Hits++
			res.HitL1 = true
			res.Latency = LatL1Hit
			return res
		}
	}

	// L1 miss: snoop peers.
	h.stats.L1Misses++
	h.perCore[core].Misses++
	if h.cfg.NextLinePrefetch {
		defer h.prefetch(core, l+1, ctx)
	}
	srcCore, srcState := h.findPeer(core, l)
	switch {
	case srcState == Modified || srcState == Owned:
		// The demand signal: this access is served by a remote dirty line
		// (Modified, or Owned under MOESI — a dirty intervention either way).
		h.stats.HITM++
		if write {
			h.stats.HITMStore++
		} else {
			h.stats.HITMLoad++
		}
		res.HITM = true
		res.SrcCore = srcCore
		res.Latency = LatPeerCache
		h.perCore[core].HITMIn++
		h.perCore[srcCore].HITMOut++
		h.emit(Event{Kind: EvHITM, Ctx: ctx, Src: srcCore, Line: l, Write: write})
		if write {
			// RFO: every peer copy is invalidated, we take M. With an
			// Owned supplier its sharers must drop too.
			h.invalidatePeers(core, l, ctx)
			h.install(core, l, Modified, ctx)
		} else if h.cfg.Protocol == MOESI {
			// MOESI read: the owner keeps the dirty data (M→O, or stays
			// O) and remains responsible for it — no writeback, and the
			// next consumer will take a dirty intervention again.
			if srcState == Modified {
				h.demote(srcCore, l, Owned)
			}
			h.install(core, l, Shared, ctx)
		} else {
			// MESI read: remote demotes M→S (writeback-on-share), we take
			// S. The dirty data also lands in the LLC.
			h.demote(srcCore, l, Shared)
			if h.llc != nil {
				h.llcWriteback(l, ctx)
			}
			h.install(core, l, Shared, ctx)
		}
	case srcState == Exclusive || srcState == Shared:
		h.stats.PeerClean++
		res.SrcCore = srcCore
		res.Latency = LatPeerCache
		h.emit(Event{Kind: EvHitShared, Ctx: ctx, Src: srcCore, Line: l, Write: write})
		if write {
			h.invalidatePeers(core, l, ctx)
			h.install(core, l, Modified, ctx)
		} else {
			h.demote(srcCore, l, Shared)
			h.install(core, l, Shared, ctx)
		}
	default:
		// No peer holds the line: try the shared LLC, then memory. A
		// producer whose dirty line was evicted from its L1 has written it
		// back into the LLC (or to memory), so the consumer lands here:
		// real sharing served with no HITM — the indicator's eviction
		// blind spot.
		if h.llc != nil {
			if s := h.llcLookup(l); s != nil {
				h.llcTouch(s)
				h.stats.LLCHits++
				res.Latency = LatLLC
				if write {
					h.install(core, l, Modified, ctx)
				} else {
					h.install(core, l, Exclusive, ctx)
				}
				return res
			}
		}
		h.stats.MemoryFills++
		res.Latency = LatMemory
		if h.llc != nil {
			h.llcInstall(l, false, ctx)
		}
		if write {
			h.install(core, l, Modified, ctx)
		} else {
			h.install(core, l, Exclusive, ctx)
		}
	}
	return res
}

// prefetch pulls line l into core's L1 as a clean copy, off the critical
// path: no latency is charged and — crucially — no HITM event is raised
// even when the fill drains a peer's Modified line, because the transfer is
// not attributable to a retired instruction. Side-effect events of making
// room (L1/LLC evictions) still fire as usual.
func (h *Hierarchy) prefetch(core int, l mem.Line, ctx Context) {
	if h.lookup(core, l) != nil {
		return
	}
	h.stats.Prefetches++
	srcCore, srcState := h.findPeer(core, l)
	switch {
	case srcState == Modified || srcState == Owned:
		// The silent drain: the producer's dirty line moves without a
		// PMU-visible event, hiding the sharing from the indicator.
		h.stats.PrefetchedHITM++
		if h.cfg.Protocol == MOESI {
			if srcState == Modified {
				h.demote(srcCore, l, Owned)
			}
		} else {
			h.demote(srcCore, l, Shared)
			if h.llc != nil {
				h.llcWriteback(l, ctx)
			}
		}
		h.install(core, l, Shared, ctx)
	case srcState == Exclusive || srcState == Shared:
		h.demote(srcCore, l, Shared)
		h.install(core, l, Shared, ctx)
	default:
		if h.llc != nil {
			if s := h.llcLookup(l); s != nil {
				h.llcTouch(s)
				h.install(core, l, Exclusive, ctx)
				return
			}
			h.llcInstall(l, false, ctx)
		}
		h.install(core, l, Exclusive, ctx)
	}
}

// findPeer scans other cores for the line, returning the holding core and
// state (Modified preferred, since at most one M copy can exist).
func (h *Hierarchy) findPeer(core int, l mem.Line) (int, State) {
	bestCore, bestState := -1, Invalid
	for c := range h.cores {
		if c == core {
			continue
		}
		if w := h.lookup(c, l); w != nil {
			if w.state == Modified || w.state == Owned {
				return c, w.state
			}
			if bestState == Invalid {
				bestCore, bestState = c, w.state
			}
		}
	}
	return bestCore, bestState
}

// invalidatePeers drops every peer copy of l, emitting invalidation events.
func (h *Hierarchy) invalidatePeers(core int, l mem.Line, requester Context) {
	for c := range h.cores {
		if c == core {
			continue
		}
		if w := h.lookup(c, l); w != nil {
			// Dirty peers (Owned under MOESI, or the Modified supplier on
			// the RFO path) hand their data to the requester, which takes
			// it Modified — no memory writeback is needed.
			h.dropLine(c, l)
			h.stats.Invalidations++
			h.emit(Event{Kind: EvInvalidation, Ctx: h.anyCtxOf(c), Src: core, Line: l, Write: true})
		}
	}
}

func (h *Hierarchy) dropLine(core int, l mem.Line) {
	set := h.cores[core].sets[h.setIndex(l)]
	for i := range set {
		if set[i].state != Invalid && set[i].line == l {
			set[i].state = Invalid
			return
		}
	}
}

func (h *Hierarchy) demote(core int, l mem.Line, to State) {
	if w := h.lookup(core, l); w != nil {
		w.state = to
	}
}

// anyCtxOf returns the first hardware context of a core, used to attribute
// events that target a core rather than a specific context.
func (h *Hierarchy) anyCtxOf(core int) Context { return Context(core * h.cfg.SMT) }

// StateOf reports the MESI state of line l in core's L1 (Invalid if absent).
// Exposed for tests and invariant checks.
func (h *Hierarchy) StateOf(core int, l mem.Line) State {
	if w := h.lookup(core, l); w != nil {
		return w.state
	}
	return Invalid
}

// CheckInvariants validates the MESI single-writer invariants across all
// cores and returns an error describing the first violation. Tests call this
// after every access; production callers may ignore it.
func (h *Hierarchy) CheckInvariants() error {
	type hold struct {
		core  int
		state State
	}
	seen := map[mem.Line][]hold{}
	for c := range h.cores {
		for _, set := range h.cores[c].sets {
			for _, w := range set {
				if w.state == Invalid {
					continue
				}
				seen[w.line] = append(seen[w.line], hold{c, w.state})
			}
		}
	}
	for l, holds := range seen {
		var m, e, o, s int
		for _, hd := range holds {
			switch hd.state {
			case Modified:
				m++
			case Exclusive:
				e++
			case Owned:
				o++
			case Shared:
				s++
			}
		}
		if m > 1 {
			return fmt.Errorf("cache: line %v held Modified by %d cores", l, m)
		}
		if e > 1 {
			return fmt.Errorf("cache: line %v held Exclusive by %d cores", l, e)
		}
		if o > 1 {
			return fmt.Errorf("cache: line %v held Owned by %d cores", l, o)
		}
		if o > 0 && h.cfg.Protocol != MOESI {
			return fmt.Errorf("cache: line %v Owned under MESI", l)
		}
		if (m > 0 || e > 0) && len(holds) > 1 {
			return fmt.Errorf("cache: line %v held M/E alongside other copies (%d holders)", l, len(holds))
		}
		if o > 0 && (m > 0 || e > 0) {
			return fmt.Errorf("cache: line %v held Owned alongside M/E", l)
		}
		_ = s
	}
	return h.checkInclusion()
}

// Flush invalidates every line in every cache level, writing back dirty
// lines. Used by tests to force the eviction blind spot deterministically.
func (h *Hierarchy) Flush() {
	for c := range h.cores {
		for si := range h.cores[c].sets {
			set := h.cores[c].sets[si]
			for i := range set {
				if set[i].state == Modified || set[i].state == Owned {
					h.stats.Writebacks++
					if h.llc != nil {
						h.llcWriteback(set[i].line, h.anyCtxOf(c))
					}
				}
				set[i].state = Invalid
			}
		}
	}
	if h.llc == nil {
		return
	}
	for si := range h.llc.sets {
		set := h.llc.sets[si]
		for i := range set {
			if set[i].valid && set[i].dirty {
				h.stats.L2Writebacks++
			}
			set[i].valid = false
		}
	}
}

// LLCStateOf reports whether line l is present in the LLC and dirty there.
// Exposed for tests.
func (h *Hierarchy) LLCStateOf(l mem.Line) (present, dirty bool) {
	if h.llc == nil {
		return false, false
	}
	if s := h.llcLookup(l); s != nil {
		return true, s.dirty
	}
	return false, false
}
