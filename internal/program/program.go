// Package program defines the op-level intermediate representation of the
// parallel programs the simulator executes.
//
// A Program is a set of threads, each a straight-line sequence of ops:
// memory accesses (Load/Store/atomics), synchronization (Lock/Unlock,
// Barrier, Signal/Wait), and Compute blocks standing in for the
// non-memory work between accesses. The workload kernels in
// internal/workloads build these programs; the scheduler in internal/sched
// interleaves them deterministically; the runner feeds every executed op
// through the cache, PMU, and race-detection pipeline.
//
// The representation is deliberately loop-free: kernels unroll their loops
// when building, which keeps execution, replay, and trace encoding trivial
// and makes every run exactly reproducible.
package program

import (
	"fmt"
	"io"

	"demandrace/internal/mem"
	"demandrace/internal/vclock"
)

// Kind discriminates op types.
type Kind uint8

const (
	// OpLoad reads Addr.
	OpLoad Kind = iota
	// OpStore writes Addr.
	OpStore
	// OpAtomicLoad reads Addr with acquire semantics (synchronizes with a
	// prior OpAtomicStore to the same address).
	OpAtomicLoad
	// OpAtomicStore writes Addr with release semantics.
	OpAtomicStore
	// OpLock acquires mutex Sync (blocking).
	OpLock
	// OpUnlock releases mutex Sync.
	OpUnlock
	// OpBarrier arrives at barrier Sync and blocks until all participants
	// arrive.
	OpBarrier
	// OpSignal increments semaphore Sync (release edge).
	OpSignal
	// OpWait decrements semaphore Sync, blocking while zero (acquire edge).
	OpWait
	// OpCompute burns N cycles of thread-local work touching no shared
	// memory.
	OpCompute
	// OpMark is a zero-cost annotation: it sets the executing thread's
	// current region label to Program.Labels[N]. Race reports carry the
	// region of each access, standing in for the source locations a
	// binary-instrumentation tool would record.
	OpMark
)

func (k Kind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpAtomicLoad:
		return "atomic-load"
	case OpAtomicStore:
		return "atomic-store"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	case OpBarrier:
		return "barrier"
	case OpSignal:
		return "signal"
	case OpWait:
		return "wait"
	case OpCompute:
		return "compute"
	case OpMark:
		return "mark"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMemory reports whether the op is a data memory access (the ops the
// demand-driven controller can skip analyzing).
func (k Kind) IsMemory() bool {
	switch k {
	case OpLoad, OpStore, OpAtomicLoad, OpAtomicStore:
		return true
	}
	return false
}

// IsSync reports whether the op is a synchronization operation (always
// instrumented, per the paper).
func (k Kind) IsSync() bool {
	switch k {
	case OpLock, OpUnlock, OpBarrier, OpSignal, OpWait, OpAtomicLoad, OpAtomicStore:
		return true
	}
	return false
}

// IsWrite reports whether the op writes memory.
func (k Kind) IsWrite() bool { return k == OpStore || k == OpAtomicStore }

// SyncID names a synchronization object (mutex, barrier, or semaphore).
// The ID spaces of the three classes are disjoint.
type SyncID int32

// Op is one executable operation. Field order packs it into 24 bytes
// (Kind and Sync share the first word), which every build, injection copy
// and scheduler read moves.
type Op struct {
	Kind Kind
	// Sync is the target of synchronization ops.
	Sync SyncID
	// Addr is the target of memory ops.
	Addr mem.Addr
	// N is the cycle count for OpCompute.
	N uint64
}

func (o Op) String() string {
	switch {
	case o.Kind.IsMemory():
		return fmt.Sprintf("%s %v", o.Kind, o.Addr)
	case o.Kind == OpCompute:
		return fmt.Sprintf("compute %d", o.N)
	case o.Kind == OpMark:
		return fmt.Sprintf("mark #%d", o.N)
	default:
		return fmt.Sprintf("%s #%d", o.Kind, o.Sync)
	}
}

// Thread is one thread's straight-line body.
type Thread struct {
	ID  vclock.TID
	Ops []Op
}

// Program is a complete multithreaded workload.
type Program struct {
	Name    string
	Threads []Thread
	// Mutexes, Barriers, Semaphores are the number of sync objects of each
	// class; valid Sync IDs are [0, count).
	Mutexes    int
	Barriers   int
	Semaphores int
	// BarrierParties[b] is the participant count of barrier b.
	BarrierParties []int
	// Labels holds the region names referenced by OpMark ops.
	Labels []string
}

// LabelOf resolves an OpMark op's region name.
func (p *Program) LabelOf(op Op) string {
	if op.Kind != OpMark || op.N >= uint64(len(p.Labels)) {
		return ""
	}
	return p.Labels[op.N]
}

// NumThreads returns the thread count.
func (p *Program) NumThreads() int { return len(p.Threads) }

// TotalOps returns the total op count across threads.
func (p *Program) TotalOps() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t.Ops)
	}
	return n
}

// MemOps returns the total count of data memory accesses.
func (p *Program) MemOps() int {
	n := 0
	for _, t := range p.Threads {
		for _, op := range t.Ops {
			if op.Kind.IsMemory() {
				n++
			}
		}
	}
	return n
}

// Validate checks structural well-formedness: sync IDs in range, lock/unlock
// discipline per thread (no unlock of a lock the thread does not hold, no
// lock still held at thread exit), barrier participant counts consistent
// with use, and memory ops with nonzero addresses.
func (p *Program) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("program %q: no threads", p.Name)
	}
	if len(p.BarrierParties) != p.Barriers {
		return fmt.Errorf("program %q: BarrierParties has %d entries for %d barriers",
			p.Name, len(p.BarrierParties), p.Barriers)
	}
	barrierUsers := make([]map[vclock.TID]bool, p.Barriers)
	for i := range barrierUsers {
		barrierUsers[i] = map[vclock.TID]bool{}
	}
	for ti, th := range p.Threads {
		if th.ID != vclock.TID(ti) {
			return fmt.Errorf("program %q: thread %d has ID %d; IDs must be dense and ordered",
				p.Name, ti, th.ID)
		}
		held := map[SyncID]int{}
		for oi, op := range th.Ops {
			where := func() string {
				return fmt.Sprintf("program %q thread %d op %d (%v)", p.Name, ti, oi, op)
			}
			switch op.Kind {
			case OpLoad, OpStore, OpAtomicLoad, OpAtomicStore:
				if op.Addr == 0 {
					return fmt.Errorf("%s: zero address", where())
				}
			case OpLock:
				if int(op.Sync) < 0 || int(op.Sync) >= p.Mutexes {
					return fmt.Errorf("%s: mutex out of range", where())
				}
				if held[op.Sync] > 0 {
					return fmt.Errorf("%s: recursive lock", where())
				}
				held[op.Sync]++
			case OpUnlock:
				if int(op.Sync) < 0 || int(op.Sync) >= p.Mutexes {
					return fmt.Errorf("%s: mutex out of range", where())
				}
				if held[op.Sync] == 0 {
					return fmt.Errorf("%s: unlock of unheld mutex", where())
				}
				held[op.Sync]--
			case OpBarrier:
				if int(op.Sync) < 0 || int(op.Sync) >= p.Barriers {
					return fmt.Errorf("%s: barrier out of range", where())
				}
				barrierUsers[op.Sync][th.ID] = true
			case OpSignal, OpWait:
				if int(op.Sync) < 0 || int(op.Sync) >= p.Semaphores {
					return fmt.Errorf("%s: semaphore out of range", where())
				}
			case OpCompute:
				if op.N == 0 {
					return fmt.Errorf("%s: zero-cycle compute", where())
				}
			case OpMark:
				if op.N >= uint64(len(p.Labels)) {
					return fmt.Errorf("%s: label index out of range", where())
				}
			default:
				return fmt.Errorf("%s: unknown op kind", where())
			}
		}
		// Name the lowest held ID: map order would make the message vary
		// from call to call.
		lowest := SyncID(-1)
		for id, n := range held {
			if n > 0 && (lowest < 0 || id < lowest) {
				lowest = id
			}
		}
		if lowest >= 0 {
			return fmt.Errorf("program %q thread %d: mutex #%d still held at exit",
				p.Name, ti, lowest)
		}
	}
	for b, users := range barrierUsers {
		if len(users) > 0 && len(users) != p.BarrierParties[b] {
			return fmt.Errorf("program %q: barrier #%d used by %d threads but declares %d parties",
				p.Name, b, len(users), p.BarrierParties[b])
		}
	}
	return nil
}

// Dump writes a human-readable listing of the program — name, sync-object
// inventory, and each thread's ops — for debugging workload builders.
func (p *Program) Dump(w io.Writer) {
	fmt.Fprintf(w, "program %q: %d threads, %d ops (%d mem), %d mutexes, %d barriers, %d semaphores\n",
		p.Name, p.NumThreads(), p.TotalOps(), p.MemOps(), p.Mutexes, p.Barriers, p.Semaphores)
	for _, th := range p.Threads {
		fmt.Fprintf(w, "  t%d (%d ops):\n", th.ID, len(th.Ops))
		for i, op := range th.Ops {
			if op.Kind == OpMark {
				fmt.Fprintf(w, "    %4d: region %q\n", i, p.LabelOf(op))
				continue
			}
			fmt.Fprintf(w, "    %4d: %v\n", i, op)
		}
	}
}
