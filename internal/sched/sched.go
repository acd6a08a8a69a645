// Package sched executes a program.Program under a deterministic simulated
// thread scheduler.
//
// The scheduler owns all blocking semantics (mutexes, barriers, semaphores)
// and hands every executed operation to an Executor — the runner's pipeline
// of cache simulation, PMU accounting, and race detection. Determinism is a
// hard requirement: the same program, configuration, and seed produce the
// same interleaving, the same coherence events, and the same race reports,
// which is what makes the accuracy experiments reproducible.
package sched

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"demandrace/internal/cache"
	"demandrace/internal/program"
	"demandrace/internal/vclock"
)

// Executor receives every executed operation in program order per thread,
// already serialized by the scheduler.
type Executor interface {
	// Exec is called once per executed op, except barriers. For OpLock it
	// is called at the moment the acquisition succeeds.
	Exec(t vclock.TID, ctx cache.Context, op program.Op)
	// BarrierRelease is called once when the last participant arrives at a
	// barrier, with the participants in ascending thread order. No Exec
	// call is made for OpBarrier.
	BarrierRelease(id program.SyncID, parties []vclock.TID)
}

// Policy selects the interleaving strategy.
type Policy uint8

const (
	// RoundRobin runs ready threads in cyclic thread order, one quantum at
	// a time.
	RoundRobin Policy = iota
	// RandomInterleave picks the next thread uniformly among ready threads
	// using the configured seed.
	RandomInterleave
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case RandomInterleave:
		return "random"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Config controls scheduling and thread placement.
type Config struct {
	Policy Policy
	// Seed drives RandomInterleave.
	Seed int64
	// Quantum is the maximum ops a thread runs before the scheduler
	// switches. Must be ≥ 1.
	Quantum int
	// Contexts is the number of hardware contexts available. Threads are
	// placed with CtxOf, defaulting to tid mod Contexts.
	Contexts int
	// CtxOf overrides thread placement (optional). New calls it once per
	// thread and rejects a context outside [0, Contexts).
	CtxOf func(vclock.TID) cache.Context
}

// DefaultConfig is round-robin with a quantum of 1 (finest interleaving)
// over the given context count.
func DefaultConfig(contexts int) Config {
	return Config{Policy: RoundRobin, Quantum: 1, Contexts: contexts}
}

func (c Config) validate() error {
	if c.Quantum < 1 {
		return fmt.Errorf("sched: Quantum must be ≥ 1, got %d", c.Quantum)
	}
	if c.Contexts < 1 {
		return fmt.Errorf("sched: Contexts must be ≥ 1, got %d", c.Contexts)
	}
	return nil
}

// InterruptedError reports a run stopped by context cancellation, carrying
// how far it got — the number the service's job-lifecycle logs attribute a
// timeout to. It unwraps to the context error, so errors.Is(err, ctx.Err())
// keeps working for every existing caller.
type InterruptedError struct {
	// Steps is the number of ops executed before the interruption.
	Steps uint64
	// Err is the context's error (context.Canceled or DeadlineExceeded).
	Err error
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("sched: run interrupted after %d steps: %v", e.Steps, e.Err)
}

func (e *InterruptedError) Unwrap() error { return e.Err }

// DeadlockError reports that no thread can make progress.
type DeadlockError struct {
	// Blocked describes each stuck thread.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sched: deadlock among %d threads: %v", len(e.Blocked), e.Blocked)
}

type threadStatus uint8

const (
	stReady threadStatus = iota
	stBlockedMutex
	stBlockedBarrier
	stBlockedSem
	stDone
)

type threadState struct {
	pc     int
	status threadStatus
	// waitOn is the sync object blocking the thread (valid when blocked).
	waitOn program.SyncID
}

type mutexState struct {
	owner vclock.TID // -1 when free
}

type barrierState struct {
	waiting []vclock.TID
}

type semState struct {
	count int
}

// Scheduler drives one program to completion.
type Scheduler struct {
	prog    *program.Program
	cfg     Config
	threads []threadState
	// ctxs[t] is thread t's hardware context, resolved once by New.
	ctxs    []cache.Context
	mutexes []mutexState
	bars    []barrierState
	sems    []semState
	rng     *rand.Rand
	// ready is RandomInterleave's buffer of ready thread indices, refilled
	// at every pick.
	ready []int
	// rrNext is the next thread index to consider under round-robin.
	rrNext int
	// steps counts executed ops, for the stats consumers.
	steps uint64
}

// New prepares a scheduler for one run of prog. The program must already be
// validated. It fails if the configuration is invalid or places a thread
// outside [0, cfg.Contexts).
func New(prog *program.Program, cfg Config) (*Scheduler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(prog.Threads)
	s := &Scheduler{
		prog:    prog,
		cfg:     cfg,
		threads: make([]threadState, n),
		ctxs:    make([]cache.Context, n),
		mutexes: make([]mutexState, prog.Mutexes),
		bars:    make([]barrierState, prog.Barriers),
		sems:    make([]semState, prog.Semaphores),
	}
	for t := range s.ctxs {
		ctx := cache.Context(t % cfg.Contexts)
		if cfg.CtxOf != nil {
			ctx = cfg.CtxOf(vclock.TID(t))
		}
		if ctx < 0 || int(ctx) >= cfg.Contexts {
			return nil, fmt.Errorf("sched: CtxOf places t%d on context %d, outside [0,%d)", t, ctx, cfg.Contexts)
		}
		s.ctxs[t] = ctx
	}
	for i := range s.mutexes {
		s.mutexes[i].owner = -1
	}
	if cfg.Policy == RandomInterleave {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
		s.ready = make([]int, 0, n)
	}
	return s, nil
}

// CtxOf returns the hardware context thread t runs on.
func (s *Scheduler) CtxOf(t vclock.TID) cache.Context { return s.ctxs[t] }

// Steps returns the number of ops executed so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Run executes the program to completion, delivering every op to ex.
// It returns a *DeadlockError if the program cannot finish.
func (s *Scheduler) Run(ex Executor) error {
	return s.RunContext(context.Background(), ex)
}

// RunContext is Run with cooperative cancellation: ctx is polled at every
// scheduler-quantum boundary (between slots, never mid-op), so a long
// simulation aborts within one quantum of cancellation while the executed
// prefix stays exactly the prefix a full run would have produced. A context
// without a Done channel (context.Background) adds no per-slot cost.
//
// Each pass of the loop is one slot: pick a ready thread, then run it for up
// to Quantum ops or until it blocks, ends, or releases a barrier.
func (s *Scheduler) RunContext(ctx context.Context, ex Executor) error {
	done := ctx.Done()
	n := len(s.threads)
slots:
	for {
		if done != nil {
			select {
			case <-done:
				return &InterruptedError{Steps: s.steps, Err: ctx.Err()}
			default:
			}
		}
		ti := -1
		if s.rng != nil {
			s.ready = s.ready[:0]
			for i := range s.threads {
				if s.threads[i].status == stReady {
					s.ready = append(s.ready, i)
				}
			}
			if len(s.ready) > 0 {
				ti = s.ready[s.rng.Intn(len(s.ready))]
			}
		} else {
			// rrNext stays in [0, n), so indices wrap by comparison; the pick
			// runs once per slot and integer division showed in suite
			// profiles.
			i := s.rrNext
			for off := 0; off < n; off++ {
				if s.threads[i].status == stReady {
					if s.rrNext = i + 1; s.rrNext == n {
						s.rrNext = 0
					}
					ti = i
					break
				}
				if i++; i == n {
					i = 0
				}
			}
		}
		if ti < 0 {
			if s.allDone() {
				return nil
			}
			return s.deadlock()
		}

		tid, c := vclock.TID(ti), s.ctxs[ti]
		st := &s.threads[ti]
		ops := s.prog.Threads[ti].Ops
		for q := 0; q < s.cfg.Quantum; q++ {
			if st.pc >= len(ops) {
				st.status = stDone
				continue slots
			}
			switch op := ops[st.pc]; op.Kind {
			case program.OpLock, program.OpUnlock, program.OpBarrier, program.OpSignal, program.OpWait:
				if !s.syncOp(ex, st, tid, c, op) {
					// Blocked, or released a barrier: the slot ends here, and
					// a releasing thread whose body just ended stays ready
					// until its next pick marks it done.
					continue slots
				}
			default:
				s.steps++
				ex.Exec(tid, c, op)
				st.pc++
			}
		}
		if st.pc >= len(ops) {
			st.status = stDone
		}
	}
}

func (s *Scheduler) allDone() bool {
	for i := range s.threads {
		if s.threads[i].status != stDone {
			return false
		}
	}
	return true
}

func (s *Scheduler) deadlock() error {
	var blocked []string
	for i := range s.threads {
		st := &s.threads[i]
		if st.status == stDone || st.status == stReady {
			continue
		}
		var what string
		switch st.status {
		case stBlockedMutex:
			what = fmt.Sprintf("t%d waits mutex #%d (held by t%d)",
				i, st.waitOn, s.mutexes[st.waitOn].owner)
		case stBlockedBarrier:
			what = fmt.Sprintf("t%d waits barrier #%d (%d/%d arrived)",
				i, st.waitOn, len(s.bars[st.waitOn].waiting), s.prog.BarrierParties[st.waitOn])
		case stBlockedSem:
			what = fmt.Sprintf("t%d waits semaphore #%d", i, st.waitOn)
		}
		blocked = append(blocked, what)
	}
	return &DeadlockError{Blocked: blocked}
}

// syncOp runs one lock, unlock, barrier, signal or wait for thread t on
// context c. It returns false when the op ends t's slot: t blocked on it,
// or it was the last arrival at a barrier and released the parties.
func (s *Scheduler) syncOp(ex Executor, st *threadState, t vclock.TID, c cache.Context, op program.Op) bool {
	switch op.Kind {
	case program.OpLock:
		m := &s.mutexes[op.Sync]
		if m.owner != -1 {
			st.status, st.waitOn = stBlockedMutex, op.Sync
			return false
		}
		m.owner = t
		s.steps++
		ex.Exec(t, c, op)
	case program.OpUnlock:
		m := &s.mutexes[op.Sync]
		if m.owner != t {
			// Validate() rules this out for well-formed programs; a
			// mutation bug would corrupt state silently, so fail loudly.
			panic(fmt.Sprintf("sched: t%d unlocks mutex #%d owned by t%d", t, op.Sync, m.owner))
		}
		s.steps++
		ex.Exec(t, c, op)
		m.owner = -1
		s.wakeAll(stBlockedMutex, op.Sync)
	case program.OpBarrier:
		b := &s.bars[op.Sync]
		b.waiting = append(b.waiting, t)
		if len(b.waiting) < s.prog.BarrierParties[op.Sync] {
			st.status, st.waitOn = stBlockedBarrier, op.Sync
			return false
		}
		// Last arrival: release everyone, the releasing thread included,
		// and end the slot so peers get to run promptly.
		parties := slices.Clone(b.waiting)
		slices.Sort(parties)
		b.waiting = b.waiting[:0]
		s.steps++
		ex.BarrierRelease(op.Sync, parties)
		for _, p := range parties {
			ps := &s.threads[p]
			ps.status = stReady
			ps.pc++
		}
		return false
	case program.OpSignal:
		s.steps++
		ex.Exec(t, c, op)
		s.sems[op.Sync].count++
		s.wakeAll(stBlockedSem, op.Sync)
	case program.OpWait:
		sem := &s.sems[op.Sync]
		if sem.count == 0 {
			st.status, st.waitOn = stBlockedSem, op.Sync
			return false
		}
		sem.count--
		s.steps++
		ex.Exec(t, c, op)
	}
	st.pc++
	return true
}

// wakeAll moves every thread blocked with the given status on id back to
// ready; they re-attempt their blocking op when next scheduled.
func (s *Scheduler) wakeAll(status threadStatus, id program.SyncID) {
	for i := range s.threads {
		st := &s.threads[i]
		if st.status == status && st.waitOn == id {
			st.status = stReady
		}
	}
}
