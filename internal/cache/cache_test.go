package cache

import (
	"math/rand"
	"testing"

	"demandrace/internal/mem"
)

func newTest(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	return New(cfg)
}

func addr(line, off uint64) mem.Addr {
	return mem.Addr(line*mem.LineSize + off)
}

// recordEvents installs an event sink on h and returns the slice it
// appends to; tests truncate it to scope the capture to one access.
func recordEvents(h *Hierarchy) *[]Event {
	evs := new([]Event)
	h.SetEventSink(func(ev Event) { *evs = append(*evs, ev) })
	return evs
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Cores: 0, SMT: 1, L1Sets: 64, L1Ways: 8},
		{Cores: 4, SMT: 0, L1Sets: 64, L1Ways: 8},
		{Cores: 4, SMT: 1, L1Sets: 63, L1Ways: 8},
		{Cores: 4, SMT: 1, L1Sets: 0, L1Ways: 8},
		{Cores: 4, SMT: 1, L1Sets: 64, L1Ways: 0},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestColdLoadFillsExclusive(t *testing.T) {
	h := newTest(t, DefaultConfig())
	res := h.Access(0, addr(1, 0), false)
	if res.HitL1 || res.HITM {
		t.Errorf("cold load: %+v", res)
	}
	if res.Latency != LatMemory {
		t.Errorf("cold load latency = %d, want %d", res.Latency, LatMemory)
	}
	if st := h.StateOf(0, mem.LineOf(addr(1, 0))); st != Exclusive {
		t.Errorf("state after cold load = %v, want E", st)
	}
}

func TestColdStoreFillsModified(t *testing.T) {
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(1, 0), true)
	if st := h.StateOf(0, mem.LineOf(addr(1, 0))); st != Modified {
		t.Errorf("state after cold store = %v, want M", st)
	}
}

func TestLoadHitAfterLoad(t *testing.T) {
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(1, 0), false)
	res := h.Access(0, addr(1, 8), false) // same line, different word
	if !res.HitL1 || res.Latency != LatL1Hit {
		t.Errorf("expected L1 hit, got %+v", res)
	}
}

func TestSilentUpgradeEtoM(t *testing.T) {
	h := newTest(t, DefaultConfig())
	evs := recordEvents(h)
	h.Access(0, addr(1, 0), false) // E
	*evs = (*evs)[:0]
	res := h.Access(0, addr(1, 0), true)
	if !res.HitL1 || len(*evs) != 0 {
		t.Errorf("E→M upgrade should be silent, got %+v with events %+v", res, *evs)
	}
	if st := h.StateOf(0, mem.LineOf(addr(1, 0))); st != Modified {
		t.Errorf("state = %v, want M", st)
	}
}

func TestHITMOnProducerConsumer(t *testing.T) {
	// The canonical W→R sharing pattern: core 0 writes, core 1 reads.
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(5, 0), true) // producer dirties the line
	res := h.Access(1, addr(5, 0), false)
	if !res.HITM {
		t.Fatalf("consumer load should HITM, got %+v", res)
	}
	if res.SrcCore != 0 {
		t.Errorf("HITM source = %d, want 0", res.SrcCore)
	}
	if got := h.Stats().HITMLoad; got != 1 {
		t.Errorf("HITMLoad = %d, want 1", got)
	}
	// Afterwards both hold Shared.
	if h.StateOf(0, 5) != Shared || h.StateOf(1, 5) != Shared {
		t.Errorf("post-HITM states: core0=%v core1=%v, want S/S",
			h.StateOf(0, 5), h.StateOf(1, 5))
	}
}

func TestHITMOnWriteWrite(t *testing.T) {
	// W→W sharing: core 1's store misses and finds core 0's M copy.
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(5, 0), true)
	res := h.Access(1, addr(5, 0), true)
	if !res.HITM {
		t.Fatalf("store to remote-M line should HITM, got %+v", res)
	}
	if h.Stats().HITMStore != 1 {
		t.Errorf("HITMStore = %d", h.Stats().HITMStore)
	}
	if h.StateOf(0, 5) != Invalid {
		t.Errorf("old owner should be invalidated, state=%v", h.StateOf(0, 5))
	}
	if h.StateOf(1, 5) != Modified {
		t.Errorf("new owner state = %v, want M", h.StateOf(1, 5))
	}
}

func TestNoHITMOnReadSharing(t *testing.T) {
	// R→R sharing is not a race indicator and raises no HITM.
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(5, 0), false)
	res := h.Access(1, addr(5, 0), false)
	if res.HITM {
		t.Errorf("read-read sharing raised HITM: %+v", res)
	}
	if res.SrcCore != 0 || res.Latency != LatPeerCache {
		t.Errorf("expected peer-clean fill, got %+v", res)
	}
	if h.Stats().HITM != 0 {
		t.Errorf("HITM count = %d, want 0", h.Stats().HITM)
	}
}

func TestFalseSharingRaisesHITM(t *testing.T) {
	// Different words, same line: the hardware indicator fires even though
	// no word is actually shared. The detector will later reject this.
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(5, 0), true)
	res := h.Access(1, addr(5, 8), false)
	if !res.HITM {
		t.Error("false sharing should raise HITM at line granularity")
	}
}

func TestEvictionHidesSharing(t *testing.T) {
	// Producer writes, line is evicted (flushed), consumer reads: the fill
	// comes from memory and no HITM fires. This is the indicator's blind
	// spot the paper documents.
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(5, 0), true)
	h.Flush()
	res := h.Access(1, addr(5, 0), false)
	if res.HITM {
		t.Error("post-eviction fill should not HITM")
	}
	if res.Latency != LatMemory {
		t.Errorf("post-eviction fill latency = %d, want memory", res.Latency)
	}
	if h.Stats().Writebacks == 0 {
		t.Error("flush of dirty line should count a writeback")
	}
}

func TestCapacityEvictionHidesSharing(t *testing.T) {
	// Same blind spot via natural capacity eviction rather than Flush: fill
	// one set past its associativity.
	cfg := Config{Cores: 2, SMT: 1, L1Sets: 2, L1Ways: 2}
	h := newTest(t, cfg)
	// All these lines map to set 0 (line numbers even).
	h.Access(0, addr(0, 0), true) // victim-to-be
	h.Access(0, addr(2, 0), false)
	h.Access(0, addr(4, 0), false) // evicts line 0 (LRU)
	if h.StateOf(0, 0) != Invalid {
		t.Fatal("line 0 should have been evicted")
	}
	if h.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", h.Stats().Writebacks)
	}
	res := h.Access(1, addr(0, 0), false)
	if res.HITM {
		t.Error("consumer of evicted line should not HITM")
	}
}

func TestSMTSharingInvisible(t *testing.T) {
	// Two contexts on the same core share an L1: producer/consumer between
	// them never raises coherence events.
	cfg := Config{Cores: 2, SMT: 2, L1Sets: 64, L1Ways: 8}
	h := newTest(t, cfg)
	// Contexts 0 and 1 are both on core 0.
	h.Access(0, addr(5, 0), true)
	res := h.Access(1, addr(5, 0), false)
	if res.HITM || !res.HitL1 {
		t.Errorf("SMT sibling access should be a silent L1 hit, got %+v", res)
	}
	// Context 2 is on core 1: cross-core access still fires.
	res = h.Access(2, addr(5, 0), false)
	if !res.HITM {
		t.Errorf("cross-core access should HITM, got %+v", res)
	}
}

func TestInvalidationOnUpgrade(t *testing.T) {
	h := newTest(t, DefaultConfig())
	evs := recordEvents(h)
	h.Access(0, addr(5, 0), false) // core0: E
	h.Access(1, addr(5, 0), false) // both S
	*evs = (*evs)[:0]
	res := h.Access(0, addr(5, 0), true)
	if !res.HitL1 {
		t.Errorf("S→M upgrade should hit locally, got %+v", res)
	}
	var sawInv bool
	for _, ev := range *evs {
		if ev.Kind == EvInvalidation {
			sawInv = true
		}
	}
	if !sawInv {
		t.Error("upgrade should invalidate the peer copy")
	}
	if h.StateOf(1, 5) != Invalid {
		t.Errorf("peer state = %v, want I", h.StateOf(1, 5))
	}
}

func TestWriteMissOverCleanPeerInvalidates(t *testing.T) {
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(5, 0), false) // core0: E
	res := h.Access(1, addr(5, 0), true)
	if res.HITM {
		t.Error("store over clean peer copy must not count HITM")
	}
	if h.StateOf(0, 5) != Invalid || h.StateOf(1, 5) != Modified {
		t.Errorf("states: %v/%v, want I/M", h.StateOf(0, 5), h.StateOf(1, 5))
	}
}

func TestEventSink(t *testing.T) {
	h := newTest(t, DefaultConfig())
	var got []Event
	h.SetEventSink(func(ev Event) { got = append(got, ev) })
	h.Access(0, addr(5, 0), true)
	h.Access(1, addr(5, 0), false)
	if len(got) != 1 || got[0].Kind != EvHITM || got[0].Ctx != 1 || got[0].Src != 0 {
		t.Errorf("sink events = %+v", got)
	}
}

func TestContextRangePanics(t *testing.T) {
	h := newTest(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range context should panic")
		}
	}()
	h.Access(Context(99), addr(0, 0), false)
}

func TestLRUReplacement(t *testing.T) {
	cfg := Config{Cores: 1, SMT: 1, L1Sets: 1, L1Ways: 2}
	h := newTest(t, cfg)
	h.Access(0, addr(0, 0), false)
	h.Access(0, addr(1, 0), false)
	h.Access(0, addr(0, 0), false) // touch line 0, line 1 becomes LRU
	h.Access(0, addr(2, 0), false) // must evict line 1
	if h.StateOf(0, 1) != Invalid {
		t.Error("LRU line 1 should be evicted")
	}
	if h.StateOf(0, 0) == Invalid {
		t.Error("MRU line 0 should survive")
	}
}

// TestMESIInvariantsRandom drives a random access stream across cores and
// checks the single-writer invariants after every access.
func TestMESIInvariantsRandom(t *testing.T) {
	for _, cfg := range []Config{
		{Cores: 2, SMT: 1, L1Sets: 4, L1Ways: 2},
		{Cores: 4, SMT: 1, L1Sets: 8, L1Ways: 2},
		{Cores: 4, SMT: 2, L1Sets: 4, L1Ways: 1},
		{Cores: 8, SMT: 1, L1Sets: 2, L1Ways: 4},
	} {
		r := rand.New(rand.NewSource(42))
		h := New(cfg)
		for i := 0; i < 20000; i++ {
			ctx := Context(r.Intn(cfg.Contexts()))
			a := addr(uint64(r.Intn(32)), uint64(r.Intn(8)*8))
			h.Access(ctx, a, r.Intn(2) == 0)
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("cfg %+v step %d: %v", cfg, i, err)
			}
		}
	}
}

// TestHITMIffRemoteModified checks the defining property of the indicator:
// an access raises HITM exactly when some other core held the line Modified
// immediately before the access.
func TestHITMIffRemoteModified(t *testing.T) {
	cfg := Config{Cores: 4, SMT: 1, L1Sets: 4, L1Ways: 2}
	r := rand.New(rand.NewSource(7))
	h := New(cfg)
	for i := 0; i < 20000; i++ {
		ctx := Context(r.Intn(cfg.Contexts()))
		a := addr(uint64(r.Intn(16)), 0)
		l := mem.LineOf(a)
		core := h.CoreOf(ctx)
		remoteM := false
		for c := 0; c < cfg.Cores; c++ {
			if c != core && h.StateOf(c, l) == Modified {
				remoteM = true
			}
		}
		localHit := h.StateOf(core, l) != Invalid
		res := h.Access(ctx, a, r.Intn(2) == 0)
		wantHITM := remoteM && !localHit
		if res.HITM != wantHITM {
			t.Fatalf("step %d: HITM=%v, want %v (remoteM=%v localHit=%v)",
				i, res.HITM, wantHITM, remoteM, localHit)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(1, 0), false)
	h.Access(0, addr(1, 0), false)
	h.Access(0, addr(2, 0), true)
	s := h.Stats()
	if s.Accesses != 3 || s.Loads != 2 || s.Stores != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.L1Hits != 1 || s.L1Misses != 2 {
		t.Errorf("hit/miss = %d/%d", s.L1Hits, s.L1Misses)
	}
	if s.MemoryFills != 2 {
		t.Errorf("memory fills = %d", s.MemoryFills)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("%v.String() = %q", uint8(st), st.String())
		}
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvHITM: "HITM", EvHitShared: "HIT_SHARED",
		EvInvalidation: "INVALIDATION", EvWriteback: "WRITEBACK",
	} {
		if k.String() != want {
			t.Errorf("kind %d String = %q, want %q", uint8(k), k.String(), want)
		}
	}
}

func TestPrefetcherPullsNextLine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = true
	h := New(cfg)
	h.Access(0, addr(5, 0), false) // miss → prefetch line 6
	if h.StateOf(0, 6) == Invalid {
		t.Error("next line not prefetched")
	}
	if h.Stats().Prefetches == 0 {
		t.Error("prefetch not counted")
	}
	// The prefetched line now hits without any further fill.
	res := h.Access(0, addr(6, 0), false)
	if !res.HitL1 {
		t.Error("prefetched line missed")
	}
}

func TestPrefetcherHidesSequentialSharing(t *testing.T) {
	// Producer dirties lines 5 and 6. Consumer reads line 5 (HITM) — the
	// prefetcher silently drains line 6, so the consumer's later read of
	// line 6 is a local hit with NO second HITM: the prefetch blind spot.
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = true
	h := New(cfg)
	h.Access(0, addr(5, 0), true)
	h.Access(0, addr(6, 0), true)
	res5 := h.Access(1, addr(5, 0), false)
	if !res5.HITM {
		t.Fatal("first consumer read should HITM")
	}
	if h.Stats().PrefetchedHITM != 1 {
		t.Fatalf("prefetched-HITM = %d, want 1", h.Stats().PrefetchedHITM)
	}
	res6 := h.Access(1, addr(6, 0), false)
	if res6.HITM || !res6.HitL1 {
		t.Errorf("prefetched sharing should be silent: %+v", res6)
	}
	// Exactly one PMU-visible HITM for two truly shared lines.
	if h.Stats().HITM != 1 {
		t.Errorf("visible HITM = %d, want 1", h.Stats().HITM)
	}
}

func TestPrefetcherNoEventEmission(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = true
	h := New(cfg)
	var hitms int
	h.SetEventSink(func(ev Event) {
		if ev.Kind == EvHITM {
			hitms++
		}
	})
	h.Access(0, addr(5, 0), true)
	h.Access(0, addr(6, 0), true)
	h.Access(1, addr(5, 0), false) // HITM on 5, silent prefetch drain of 6
	if hitms != 1 {
		t.Errorf("HITM events = %d, want 1", hitms)
	}
}

func TestPrefetcherInvariantsRandom(t *testing.T) {
	cfg := Config{Cores: 4, SMT: 1, L1Sets: 4, L1Ways: 2, L2Sets: 32, L2Ways: 4, NextLinePrefetch: true}
	r := rand.New(rand.NewSource(3))
	h := New(cfg)
	for i := 0; i < 20000; i++ {
		ctx := Context(r.Intn(cfg.Contexts()))
		a := addr(uint64(r.Intn(24)), uint64(r.Intn(8)*8))
		h.Access(ctx, a, r.Intn(2) == 0)
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestPerCoreStats(t *testing.T) {
	h := newTest(t, DefaultConfig())
	h.Access(0, addr(5, 0), true)  // core 0 miss
	h.Access(0, addr(5, 0), false) // core 0 hit
	h.Access(1, addr(5, 0), false) // core 1 miss, HITM in; core 0 supplies
	pc := h.PerCoreStats()
	if pc[0].Misses != 1 || pc[0].Hits != 1 || pc[0].HITMOut != 1 || pc[0].HITMIn != 0 {
		t.Errorf("core0 = %+v", pc[0])
	}
	if pc[1].Misses != 1 || pc[1].HITMIn != 1 || pc[1].HITMOut != 0 {
		t.Errorf("core1 = %+v", pc[1])
	}
	// Snapshot independence.
	pc[0].Hits = 999
	if h.PerCoreStats()[0].Hits == 999 {
		t.Error("PerCoreStats aliases internal state")
	}
}

func TestPerCoreStatsSumToGlobal(t *testing.T) {
	h := newTest(t, DefaultConfig())
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		h.Access(Context(r.Intn(4)), addr(uint64(r.Intn(32)), 0), r.Intn(2) == 0)
	}
	var hits, misses, in, out uint64
	for _, pc := range h.PerCoreStats() {
		hits += pc.Hits
		misses += pc.Misses
		in += pc.HITMIn
		out += pc.HITMOut
	}
	st := h.Stats()
	if hits != st.L1Hits || misses != st.L1Misses {
		t.Errorf("per-core sums %d/%d != global %d/%d", hits, misses, st.L1Hits, st.L1Misses)
	}
	if in != st.HITM || out != st.HITM {
		t.Errorf("HITM in/out sums %d/%d != global %d", in, out, st.HITM)
	}
}
