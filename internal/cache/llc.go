package cache

import (
	"fmt"

	"demandrace/internal/mem"
)

// The shared last-level cache (LLC). The paper's HITM event is specifically
// a transfer from *another core's* cache; a dirty line that was evicted
// from a private L1 into the shared LLC is served as an ordinary LLC hit
// with no HITM — the eviction blind spot persists even though the data
// never reached memory, exactly as on the Nehalem-class parts the paper
// measured. The LLC is inclusive: every line held by any L1 is present in
// the LLC, and evicting an LLC line back-invalidates the L1 copies.

type llcLine struct {
	line  mem.Line
	valid bool
	// dirty marks data newer than memory (written back from an L1, or
	// recalled from a Modified L1 copy on LLC eviction).
	dirty bool
	lru   uint64
}

// llc holds the shared sets. A set stays nil until its first install
// allocates its ways, so a run pays only for the sets it touches: a suite
// kernel fills 16–1,001 of the default configuration's 32,768 slots.
type llc struct {
	sets [][]llcLine
}

func (h *Hierarchy) llcSetIndex(l mem.Line) int { return int(uint64(l) & h.l2Mask) }

// llcLookup returns the LLC slot holding line, or nil.
func (h *Hierarchy) llcLookup(l mem.Line) *llcLine {
	set := h.llc.sets[h.llcSetIndex(l)]
	for i := range set {
		if set[i].valid && set[i].line == l {
			return &set[i]
		}
	}
	return nil
}

// llcInstall places line into the LLC, evicting an LRU victim if the set is
// full. Eviction enforces inclusion: every L1 copy of the victim is
// dropped, recalling dirty data, and dirty victims write back to memory.
func (h *Hierarchy) llcInstall(l mem.Line, dirty bool, ctx Context) {
	idx := h.llcSetIndex(l)
	set := h.llc.sets[idx]
	for i := range set {
		if !set[i].valid {
			set[i] = llcLine{line: l, valid: true, dirty: dirty, lru: h.tick}
			return
		}
	}
	if len(set) < h.cfg.L2Ways {
		if set == nil {
			set = make([]llcLine, 0, h.cfg.L2Ways)
		}
		h.llc.sets[idx] = append(set, llcLine{line: l, valid: true, dirty: dirty, lru: h.tick})
		return
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	h.evictLLCLine(&set[victim], ctx)
	set[victim] = llcLine{line: l, valid: true, dirty: dirty, lru: h.tick}
}

// evictLLCLine removes one LLC line: back-invalidates all L1 copies
// (recalling Modified data), and writes dirty data back to memory.
func (h *Hierarchy) evictLLCLine(v *llcLine, ctx Context) {
	h.stats.L2Evictions++
	dirty := v.dirty
	for c := range h.cores {
		if w := h.lookup(c, v.line); w != nil {
			if w.state == Modified || w.state == Owned {
				dirty = true
			}
			w.state = Invalid
			h.stats.Invalidations++
			h.emit(Event{Kind: EvInvalidation, Ctx: h.anyCtxOf(c), Src: -1, Line: v.line, Write: false})
		}
	}
	if dirty {
		h.stats.L2Writebacks++
		h.emit(Event{Kind: EvWriteback, Ctx: ctx, Src: -1, Line: v.line})
	}
	v.valid = false
}

// llcTouch refreshes LRU state on an LLC hit.
func (h *Hierarchy) llcTouch(l *llcLine) { l.lru = h.tick }

// llcWriteback absorbs a dirty line evicted from an L1. Inclusion
// guarantees the line is present; a defensive install covers the
// LLC-disabled-mid-run case that cannot happen in practice.
func (h *Hierarchy) llcWriteback(l mem.Line, ctx Context) {
	if s := h.llcLookup(l); s != nil {
		s.dirty = true
		return
	}
	h.llcInstall(l, true, ctx)
}

// checkInclusion verifies that every valid L1 line is present in the LLC.
func (h *Hierarchy) checkInclusion() error {
	if h.llc == nil {
		return nil
	}
	for c := range h.cores {
		for _, set := range h.cores[c].sets {
			for _, w := range set {
				if w.state == Invalid {
					continue
				}
				if h.llcLookup(w.line) == nil {
					return fmt.Errorf("cache: inclusion violated: core %d holds %v absent from LLC", c, w.line)
				}
			}
		}
	}
	return nil
}
