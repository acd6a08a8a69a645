// Package racefuzz injects synthetic data races into clean workload
// programs, providing ground truth for the detection-accuracy experiment.
//
// Each injection allocates a fresh cache line and splices unsynchronized
// accesses to it into two victim threads at pseudo-random positions. The
// injector does not guarantee that the two sides end up concurrent — an
// injection can land entirely before a barrier on one side and after it on
// the other, making the pair ordered — so the accuracy experiment uses the
// continuous-analysis detector as the oracle: an injected address counts
// only if continuous analysis (which sees every access) reports it, and the
// demand-driven detector is scored against that oracle on the identical
// interleaving.
package racefuzz

import (
	"fmt"
	"math/rand"

	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/vclock"
)

// Injection records one injected race site.
type Injection struct {
	// Addr is the fresh word both sides access.
	Addr mem.Addr
	// Writer and Reader are the victim threads. The writer side injects
	// stores; the reader side injects loads (or stores for W→W pairs).
	Writer vclock.TID
	Reader vclock.TID
	// ReaderWrites marks a write-write injection.
	ReaderWrites bool
	// Repeats is the number of accesses injected on each side.
	Repeats int
}

func (in Injection) String() string {
	kind := "W→R"
	if in.ReaderWrites {
		kind = "W→W"
	}
	return fmt.Sprintf("injected %s race on %v between t%d and t%d (×%d)",
		kind, in.Addr, in.Writer, in.Reader, in.Repeats)
}

// Config controls injection.
type Config struct {
	// Seed drives all random choices.
	Seed int64
	// Count is the number of races to inject (default 1).
	Count int
	// Repeats is the number of accesses injected per side (default 3).
	// 1 produces one-shot races, the demand-driven detector's known blind
	// spot.
	Repeats int
}

func (c Config) normalized() Config {
	if c.Count <= 0 {
		c.Count = 1
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

// Inject returns a copy of p with cfg.Count synthetic races spliced in,
// plus the injection records. The input program is not modified. Programs
// with fewer than two threads cannot host a race and return an error.
func Inject(p *program.Program, cfg Config) (*program.Program, []Injection, error) {
	cfg = cfg.normalized()
	if p.NumThreads() < 2 {
		return nil, nil, fmt.Errorf("racefuzz: program %q has %d thread(s); need ≥ 2",
			p.Name, p.NumThreads())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Copy thread bodies so splicing never aliases the input. Each
	// injection splices Repeats ops into two distinct threads, so no body
	// grows by more than Count×Repeats and splice never reallocates one.
	extra := cfg.Count * cfg.Repeats
	out := &program.Program{
		Name:           p.Name + "+races",
		Threads:        make([]program.Thread, len(p.Threads)),
		Mutexes:        p.Mutexes,
		Barriers:       p.Barriers,
		Semaphores:     p.Semaphores,
		BarrierParties: append([]int(nil), p.BarrierParties...),
		Labels:         append([]string(nil), p.Labels...),
	}
	for i, th := range p.Threads {
		ops := make([]program.Op, len(th.Ops), len(th.Ops)+extra)
		copy(ops, th.Ops)
		out.Threads[i] = program.Thread{ID: th.ID, Ops: ops}
	}

	// Fresh lines start past every address the program touches.
	next := maxAddr(p) + mem.LineSize
	next = mem.Addr((uint64(next) + mem.LineSize - 1) &^ (mem.LineSize - 1))

	injections := make([]Injection, 0, cfg.Count)
	for n := 0; n < cfg.Count; n++ {
		addr := next
		next += mem.LineSize
		w := vclock.TID(rng.Intn(p.NumThreads()))
		r := vclock.TID(rng.Intn(p.NumThreads() - 1))
		if r >= w {
			r++
		}
		readerWrites := rng.Intn(3) == 0 // one third W→W
		inj := Injection{Addr: addr, Writer: w, Reader: r,
			ReaderWrites: readerWrites, Repeats: cfg.Repeats}
		splice(rng, &out.Threads[w], program.Op{Kind: program.OpStore, Addr: addr}, cfg.Repeats)
		kind := program.OpLoad
		if readerWrites {
			kind = program.OpStore
		}
		splice(rng, &out.Threads[r], program.Op{Kind: kind, Addr: addr}, cfg.Repeats)
		injections = append(injections, inj)
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("racefuzz: injected program invalid: %w", err)
	}
	return out, injections, nil
}

// splice inserts op at n random positions in th's body, preserving the
// relative order of existing ops.
func splice(rng *rand.Rand, th *program.Thread, op program.Op, n int) {
	for i := 0; i < n; i++ {
		pos := rng.Intn(len(th.Ops) + 1)
		th.Ops = append(th.Ops, program.Op{})
		copy(th.Ops[pos+1:], th.Ops[pos:])
		th.Ops[pos] = op
	}
}

func maxAddr(p *program.Program) mem.Addr {
	var m mem.Addr
	for _, th := range p.Threads {
		for _, op := range th.Ops {
			if op.Kind.IsMemory() && op.Addr > m {
				m = op.Addr
			}
		}
	}
	return m
}
