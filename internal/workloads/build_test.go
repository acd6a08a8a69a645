package workloads

import (
	"runtime"
	"testing"
	"unsafe"

	"demandrace/internal/program"
)

// TestSuiteBuildAllocs bounds what building the Phoenix and PARSEC kernels
// costs: every op is written into a builder chunk and copied once into the
// program's single op array, so a build allocates about twice its op bytes
// and never regrows a thread. Every thread's Ops is capped at its length,
// so an append to it cannot write into the next thread's ops.
func TestSuiteBuildAllocs(t *testing.T) {
	kernels := append(Suite("phoenix"), Suite("parsec")...)
	if len(kernels) != 21 {
		t.Fatalf("%d phoenix and parsec kernels, want 21", len(kernels))
	}
	progs := make([]*program.Program, len(kernels))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range kernels {
		progs[i] = k.Build(DefaultConfig())
	}
	runtime.ReadMemStats(&after)
	ops := 0
	for _, p := range progs {
		ops += p.TotalOps()
		for _, th := range p.Threads {
			if len(th.Ops) != cap(th.Ops) {
				t.Errorf("%s t%d: %d ops with capacity %d", p.Name, th.ID, len(th.Ops), cap(th.Ops))
			}
		}
	}
	opBytes := uint64(ops) * uint64(unsafe.Sizeof(program.Op{}))
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(opBytes)
	t.Logf("building the suites allocates %d bytes for %d bytes of ops (%.2f×)", alloc, opBytes, ratio)
	if ratio > 2.5 {
		t.Errorf("allocation ratio %.2f×, want at most 2.5×", ratio)
	}
}
