package program

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"demandrace/internal/mem"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("basic")
	a := b.Space().AllocLine(8)
	mu := b.Mutex()
	t0 := b.Thread()
	t0.Store(a).Lock(mu).Load(a).Unlock(mu).Compute(5)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumThreads() != 1 || p.TotalOps() != 5 || p.MemOps() != 2 {
		t.Errorf("counts: threads=%d ops=%d mem=%d", p.NumThreads(), p.TotalOps(), p.MemOps())
	}
	if p.Mutexes != 1 {
		t.Errorf("mutexes = %d", p.Mutexes)
	}
}

func TestThreadIDsDense(t *testing.T) {
	b := NewBuilder("ids")
	a := b.Space().AllocLine(8)
	for i := 0; i < 4; i++ {
		b.Thread().Load(a)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, th := range p.Threads {
		if int(th.ID) != i {
			t.Errorf("thread %d has ID %d", i, th.ID)
		}
	}
}

func TestValidateRejectsZeroAddress(t *testing.T) {
	b := NewBuilder("zero")
	b.Thread().Load(0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "zero address") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateRejectsUnlockUnheld(t *testing.T) {
	b := NewBuilder("unheld")
	mu := b.Mutex()
	b.Thread().Unlock(mu)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unheld") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateRejectsRecursiveLock(t *testing.T) {
	b := NewBuilder("recursive")
	mu := b.Mutex()
	b.Thread().Lock(mu).Lock(mu).Unlock(mu).Unlock(mu)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateRejectsHeldAtExit(t *testing.T) {
	b := NewBuilder("held")
	mu := b.Mutex()
	b.Thread().Lock(mu)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "still held") {
		t.Errorf("err = %v", err)
	}
}

// TestValidateHeldAtExitIsDeterministic: a thread that exits holding
// several mutexes gets one message on every call, naming the lowest ID.
func TestValidateHeldAtExitIsDeterministic(t *testing.T) {
	var ops []Op
	for i := 7; i >= 0; i-- {
		ops = append(ops, Op{Kind: OpLock, Sync: SyncID(i)})
	}
	p := &Program{Name: "held-many", Threads: []Thread{{ID: 0, Ops: ops}}, Mutexes: 8}
	msgs := map[string]bool{}
	for i := 0; i < 100; i++ {
		if err := p.Validate(); err != nil {
			msgs[err.Error()] = true
		}
	}
	if len(msgs) != 1 {
		t.Fatalf("got %d distinct messages, want 1: %v", len(msgs), msgs)
	}
	for msg := range msgs {
		if !strings.Contains(msg, "mutex #0 still held") {
			t.Errorf("message %q does not name mutex #0", msg)
		}
	}
}

func TestValidateRejectsBadSyncIDs(t *testing.T) {
	cases := []func(*Builder, *ThreadBuilder){
		func(b *Builder, t *ThreadBuilder) { t.Lock(5).Unlock(5) },
		func(b *Builder, t *ThreadBuilder) { t.Barrier(5) },
		func(b *Builder, t *ThreadBuilder) { t.Signal(5) },
		func(b *Builder, t *ThreadBuilder) { t.Wait(5) },
	}
	for i, f := range cases {
		b := NewBuilder("bad")
		tb := b.Thread()
		f(b, tb)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
}

func TestValidateRejectsBarrierPartyMismatch(t *testing.T) {
	b := NewBuilder("parties")
	bar := b.Barrier(3) // declares 3 parties
	b.Thread().Barrier(bar)
	b.Thread().Barrier(bar) // only 2 use it
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "parties") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateAcceptsBarrier(t *testing.T) {
	b := NewBuilder("parties-ok")
	bar := b.Barrier(2)
	b.Thread().Barrier(bar)
	b.Thread().Barrier(bar)
	if _, err := b.Build(); err != nil {
		t.Errorf("err = %v", err)
	}
}

func TestValidateRejectsZeroCompute(t *testing.T) {
	b := NewBuilder("compute0")
	b.Thread().Compute(0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "zero-cycle") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateRejectsEmptyProgram(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Error("empty program should fail validation")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on invalid program")
		}
	}()
	NewBuilder("boom").MustBuild()
}

func TestKindClassification(t *testing.T) {
	memOps := []Kind{OpLoad, OpStore, OpAtomicLoad, OpAtomicStore}
	for _, k := range memOps {
		if !k.IsMemory() {
			t.Errorf("%v should be memory", k)
		}
	}
	syncOps := []Kind{OpLock, OpUnlock, OpBarrier, OpSignal, OpWait, OpAtomicLoad, OpAtomicStore}
	for _, k := range syncOps {
		if !k.IsSync() {
			t.Errorf("%v should be sync", k)
		}
	}
	for _, k := range []Kind{OpLoad, OpStore, OpCompute} {
		if k.IsSync() {
			t.Errorf("%v should not be sync", k)
		}
	}
	if !OpStore.IsWrite() || !OpAtomicStore.IsWrite() || OpLoad.IsWrite() || OpAtomicLoad.IsWrite() {
		t.Error("IsWrite misclassifies")
	}
}

func TestOpString(t *testing.T) {
	cases := map[string]Op{
		"load 0x40":  {Kind: OpLoad, Addr: mem.Addr(0x40)},
		"compute 10": {Kind: OpCompute, N: 10},
		"lock #2":    {Kind: OpLock, Sync: 2},
		"barrier #0": {Kind: OpBarrier, Sync: 0},
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestSemaphoreAndSignalValid(t *testing.T) {
	b := NewBuilder("sem")
	s := b.Semaphore()
	a := b.Space().AllocLine(8)
	b.Thread().Store(a).Signal(s)
	b.Thread().Wait(s).Load(a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Semaphores != 1 {
		t.Errorf("semaphores = %d", p.Semaphores)
	}
}

func TestRegionBuilder(t *testing.T) {
	b := NewBuilder("regions")
	a := b.Space().AllocLine(8)
	b.Thread().Region("init").Store(a).Region("work").Load(a).Region("init")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// "init" is interned once.
	if len(p.Labels) != 2 {
		t.Errorf("labels = %v", p.Labels)
	}
	ops := p.Threads[0].Ops
	if ops[0].Kind != OpMark || p.LabelOf(ops[0]) != "init" {
		t.Errorf("first op = %v (%q)", ops[0], p.LabelOf(ops[0]))
	}
	if p.LabelOf(ops[2]) != "work" {
		t.Errorf("third op label = %q", p.LabelOf(ops[2]))
	}
	if p.LabelOf(ops[1]) != "" {
		t.Error("LabelOf non-mark op should be empty")
	}
}

func TestValidateRejectsBadLabelIndex(t *testing.T) {
	p := &Program{
		Name:    "bad-label",
		Threads: []Thread{{ID: 0, Ops: []Op{{Kind: OpMark, N: 5}}}},
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "label index") {
		t.Errorf("err = %v", err)
	}
}

func TestDump(t *testing.T) {
	b := NewBuilder("dumpme")
	a := b.Space().AllocLine(8)
	mu := b.Mutex()
	b.Thread().Region("phase-a").Lock(mu).Store(a).Unlock(mu).Compute(3)
	p := b.MustBuild()
	var buf bytes.Buffer
	p.Dump(&buf)
	out := buf.String()
	for _, want := range []string{`program "dumpme"`, "t0 (5 ops)", `region "phase-a"`, "lock #0", "compute 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestOpSize pins Op's packed layout. Every kernel build, injected copy and
// scheduler read moves Ops; the old field order padded them to 32 bytes.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Op{}) = %d, want 24", got)
	}
}
