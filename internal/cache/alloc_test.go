package cache

import (
	"math/rand"
	"runtime"
	"testing"

	"demandrace/internal/mem"
)

var sinkHierarchy *Hierarchy

// TestNewDefaultAllocs bounds what building the default hierarchy costs:
// two allocations per core's L1, the LLC's set table, and no LLC ways until
// a run installs into a set.
func TestNewDefaultAllocs(t *testing.T) {
	build := func() { sinkHierarchy = New(DefaultConfig()) }
	if allocs := testing.AllocsPerRun(50, build); allocs > 16 {
		t.Errorf("New(DefaultConfig()) makes %.0f allocations, want at most 16", allocs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > 128<<10 {
		t.Errorf("New(DefaultConfig()) allocates %d bytes, want at most %d", bytes, 128<<10)
	}
}

// TestLLCAllocatesTouchedSetsOnly checks that a run allocates LLC ways for
// exactly the sets it installed into, each with its full associativity.
func TestLLCAllocatesTouchedSetsOnly(t *testing.T) {
	cfg := DefaultConfig()
	h := New(cfg)
	touched := map[int]bool{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		line := uint64(r.Intn(1 << 20))
		touched[h.llcSetIndex(mem.Line(line))] = true
		h.Access(Context(r.Intn(cfg.Contexts())), addr(line, 0), r.Intn(2) == 0)
	}
	if len(touched) == len(h.llc.sets) {
		t.Fatal("every LLC set touched; the check needs untouched sets")
	}
	for i, set := range h.llc.sets {
		if touched[i] != (set != nil) {
			t.Fatalf("LLC set %d: touched %v, allocated %v", i, touched[i], set != nil)
		}
		if set != nil && cap(set) != cfg.L2Ways {
			t.Fatalf("LLC set %d has capacity %d, want %d ways", i, cap(set), cfg.L2Ways)
		}
	}
}
