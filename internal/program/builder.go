package program

import (
	"fmt"

	"demandrace/internal/mem"
	"demandrace/internal/vclock"
)

// Builder assembles a Program with a fluent per-thread DSL:
//
//	b := program.NewBuilder("kernel")
//	mu := b.Mutex()
//	t0, t1 := b.Thread(), b.Thread()
//	t0.Store(a).Lock(mu).Load(x).Unlock(mu)
//	t1.Lock(mu).Store(x).Unlock(mu)
//	p, err := b.Build()
//
// The builder also owns an address space so kernels can allocate shared and
// private data without clashing.
type Builder struct {
	name       string
	threads    []*ThreadBuilder
	mutexes    int
	barriers   []int // participant counts
	semaphores int
	labels     []string
	labelIdx   map[string]uint64
	space      *mem.Space
}

// NewBuilder returns an empty program builder.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, space: mem.NewSpace(0), labelIdx: map[string]uint64{}}
}

// label interns a region name and returns its index.
func (b *Builder) label(name string) uint64 {
	if i, ok := b.labelIdx[name]; ok {
		return i
	}
	i := uint64(len(b.labels))
	b.labels = append(b.labels, name)
	b.labelIdx[name] = i
	return i
}

// Space returns the builder's address space for data layout.
func (b *Builder) Space() *mem.Space { return b.space }

// Thread adds a new thread and returns its builder. Thread IDs are assigned
// in creation order.
func (b *Builder) Thread() *ThreadBuilder {
	tb := &ThreadBuilder{id: vclock.TID(len(b.threads)), owner: b}
	b.threads = append(b.threads, tb)
	return tb
}

// Mutex allocates a new mutex and returns its ID.
func (b *Builder) Mutex() SyncID {
	b.mutexes++
	return SyncID(b.mutexes - 1)
}

// Barrier allocates a new barrier for parties participants.
func (b *Builder) Barrier(parties int) SyncID {
	b.barriers = append(b.barriers, parties)
	return SyncID(len(b.barriers) - 1)
}

// Semaphore allocates a new semaphore (initially zero) and returns its ID.
func (b *Builder) Semaphore() SyncID {
	b.semaphores++
	return SyncID(b.semaphores - 1)
}

// Build assembles and validates the program. Every thread's ops are copied
// into one array for the whole program, each thread a window capped at its
// own length, so an append to one thread's Ops never writes into the next.
func (b *Builder) Build() (*Program, error) {
	total := 0
	for _, tb := range b.threads {
		total += tb.Len()
	}
	all := make([]Op, total)
	p := &Program{
		Name:           b.name,
		Threads:        make([]Thread, len(b.threads)),
		Mutexes:        b.mutexes,
		Barriers:       len(b.barriers),
		Semaphores:     b.semaphores,
		BarrierParties: append([]int(nil), b.barriers...),
		Labels:         append([]string(nil), b.labels...),
	}
	lo := 0
	for i, tb := range b.threads {
		hi := lo
		for _, c := range tb.full {
			hi += copy(all[hi:], c)
		}
		hi += copy(all[hi:], tb.cur)
		p.Threads[i] = Thread{ID: tb.id, Ops: all[lo:hi:hi]}
		lo = hi
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for workload kernels whose
// structure is fixed at compile time.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("program: %v", err))
	}
	return p
}

// Chunk capacities, in ops, of a thread under construction.
const (
	minChunk = 64
	maxChunk = 1024
)

// ThreadBuilder appends ops to one thread. All methods return the receiver
// for chaining.
//
// Ops land in chunks that are never copied or regrown: when the current
// chunk fills, it moves to full and a new one twice its capacity (at most
// maxChunk) takes its place. Build copies each op exactly once more.
type ThreadBuilder struct {
	id vclock.TID
	// cur is the chunk being filled; full holds the filled ones in order,
	// fullOps ops in all.
	cur     []Op
	full    [][]Op
	fullOps int
	owner   *Builder
}

// ID returns the thread's ID.
func (t *ThreadBuilder) ID() vclock.TID { return t.id }

// Len returns the number of ops appended so far.
func (t *ThreadBuilder) Len() int { return t.fullOps + len(t.cur) }

func (t *ThreadBuilder) add(op Op) *ThreadBuilder {
	if len(t.cur) == cap(t.cur) {
		t.grow()
	}
	t.cur = append(t.cur, op)
	return t
}

// grow retires the full current chunk and starts the next one.
func (t *ThreadBuilder) grow() {
	size := minChunk
	if t.cur != nil {
		t.full = append(t.full, t.cur)
		t.fullOps += len(t.cur)
		size = min(2*cap(t.cur), maxChunk)
	}
	t.cur = make([]Op, 0, size)
}

// Load appends a read of addr.
func (t *ThreadBuilder) Load(addr mem.Addr) *ThreadBuilder {
	return t.add(Op{Kind: OpLoad, Addr: addr})
}

// Store appends a write of addr.
func (t *ThreadBuilder) Store(addr mem.Addr) *ThreadBuilder {
	return t.add(Op{Kind: OpStore, Addr: addr})
}

// AtomicLoad appends an acquire read of addr.
func (t *ThreadBuilder) AtomicLoad(addr mem.Addr) *ThreadBuilder {
	return t.add(Op{Kind: OpAtomicLoad, Addr: addr})
}

// AtomicStore appends a release write of addr.
func (t *ThreadBuilder) AtomicStore(addr mem.Addr) *ThreadBuilder {
	return t.add(Op{Kind: OpAtomicStore, Addr: addr})
}

// Lock appends a blocking acquire of mutex id.
func (t *ThreadBuilder) Lock(id SyncID) *ThreadBuilder {
	return t.add(Op{Kind: OpLock, Sync: id})
}

// Unlock appends a release of mutex id.
func (t *ThreadBuilder) Unlock(id SyncID) *ThreadBuilder {
	return t.add(Op{Kind: OpUnlock, Sync: id})
}

// Barrier appends an arrival at barrier id.
func (t *ThreadBuilder) Barrier(id SyncID) *ThreadBuilder {
	return t.add(Op{Kind: OpBarrier, Sync: id})
}

// Signal appends a semaphore post on id.
func (t *ThreadBuilder) Signal(id SyncID) *ThreadBuilder {
	return t.add(Op{Kind: OpSignal, Sync: id})
}

// Wait appends a blocking semaphore wait on id.
func (t *ThreadBuilder) Wait(id SyncID) *ThreadBuilder {
	return t.add(Op{Kind: OpWait, Sync: id})
}

// Compute appends n cycles of thread-local work.
func (t *ThreadBuilder) Compute(n uint64) *ThreadBuilder {
	return t.add(Op{Kind: OpCompute, N: n})
}

// Region appends a zero-cost mark: subsequent accesses by this thread are
// attributed to the named region in race reports.
func (t *ThreadBuilder) Region(name string) *ThreadBuilder {
	return t.add(Op{Kind: OpMark, N: t.owner.label(name)})
}

// Op appends a raw op (used by the race injector).
func (t *ThreadBuilder) Op(op Op) *ThreadBuilder {
	return t.add(op)
}
