package main

// Seeded input generators. Every workload input comes from here, and the
// same seed always gives the same inputs; the system under test sees only
// what these functions produce.

import (
	"bytes"
	"fmt"
	"math/rand"

	"demandrace/internal/demand"
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/runner"
	"demandrace/internal/sched"
	"demandrace/internal/service"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// suiteKernels are the Phoenix and PARSEC kernels: the programs of the
// paper's evaluation and of the job workloads.
func suiteKernels() []workloads.Kernel {
	return append(workloads.Suite("phoenix"), workloads.Suite("parsec")...)
}

const (
	// jobScale sizes job kernels: a few milliseconds of simulation each.
	jobScale = 4
	// hotKeys bounds the hot set. It must stay well under the daemon's
	// 256-entry result cache, or cycling through it evicts every entry
	// before its next use and no request ever hits.
	hotKeys = 32
	// hotPercent of the requests repeat a hot-set request.
	hotPercent = 20
)

// jobRequest is one generated submission.
type jobRequest struct {
	req service.Request
	hot bool
}

// genJobStream returns n submissions and the hot set they draw on:
// hotPercent% of the stream repeats one of hotKeys requests, the rest are
// distinct requests no other position repeats. Kernels are dealt evenly
// from reshuffled decks, so every seed sends the same mix of job sizes.
func genJobStream(seed int64, n int) (stream []jobRequest, hot []service.Request) {
	rng := rand.New(rand.NewSource(seed))
	kernels := suiteKernels()
	used := map[int64]bool{}
	freshSeed := func() int64 {
		for {
			s := rng.Int63n(1<<40) + 1
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	var deck []int
	nextKernel := func() string {
		if len(deck) == 0 {
			deck = rng.Perm(len(kernels))
		}
		k := kernels[deck[0]].Name
		deck = deck[1:]
		return k
	}
	request := func() service.Request {
		return service.Request{Kernel: nextKernel(), Scale: jobScale, Seed: freshSeed()}
	}
	for i := 0; i < hotKeys; i++ {
		hot = append(hot, request())
	}
	for i := 0; i < n; i++ {
		stream = append(stream, jobRequest{hot: i < n*hotPercent/100})
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	// Hot requests take the hot set in turn, so a hot key comes back after
	// about hotKeys*100/hotPercent requests, well inside the daemon's
	// cache. Drawn at random instead, one gap in seven outlasts the cache
	// and the request misses.
	order := rng.Perm(hotKeys)
	for i, j := 0, 0; i < n; i++ {
		if stream[i].hot {
			stream[i].req = hot[order[j%hotKeys]]
			j++
		} else {
			stream[i].req = request()
		}
	}
	return stream, hot
}

// jobConfig is the runner configuration ddserved builds for r. It mirrors
// the service's request translation for the fields this benchmark's
// requests set (kernel, scale, seed; everything else at its default), so
// that a job's result can be recomputed in-process and byte-compared.
func jobConfig(r service.Request) runner.Config {
	cfg := runner.DefaultConfig()
	cfg.PMU.SampleAfter = 1
	cfg.PMU.Seed = r.Seed
	cfg.Demand.QuietOps = 0
	cfg.Demand.SampleRate = 0.1
	cfg.Demand.Seed = r.Seed
	cfg.Demand.Scope = demand.ScopeGlobal
	cfg.Sched.Seed = r.Seed
	return cfg.WithPolicy(demand.HITMDemand)
}

// jobCase is the simulator run behind request r.
func jobCase(r service.Request) (ladderCase, error) {
	k, ok := workloads.ByName(r.Kernel)
	if !ok {
		return ladderCase{}, fmt.Errorf("unknown kernel %q", r.Kernel)
	}
	kc := workloads.Config{Threads: 4, Scale: r.Scale}
	return ladderCase{build: func() *program.Program { return k.Build(kc) }, cfg: jobConfig(r)}, nil
}

// traceScale sizes the trace-ingest kernels.
const traceScale = 2

// traceKernels are the kernels whose continuous-analysis runs make up the
// trace-ingest corpus; at traceScale their traces span ~90 KB to ~500 KB.
var traceKernels = []string{
	"histogram", "kmeans", "linear_regression", "pca",
	"string_match", "bodytrack", "streamcluster", "swaptions",
}

const (
	// lateTraces is how many late-thread traces the corpus adds.
	lateTraces = 4
	// lateThreads is the thread count of a late-thread program.
	lateThreads = 16
)

// traceCase is one trace of the ingest corpus: the run that records it.
type traceCase struct {
	name string
	late bool
	ladderCase
}

// genTraceCorpus returns the trace-ingest corpus for seed: every trace
// kernel at traceScale and lateTraces late-thread programs, each run under
// continuous analysis with a seeded random interleaving. short keeps two
// kernels and one late-thread program.
func genTraceCorpus(seed int64, short bool) ([]traceCase, error) {
	rng := rand.New(rand.NewSource(seed))
	interleaved := func() runner.Config {
		cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
		cfg.Sched.Policy = sched.RandomInterleave
		cfg.Sched.Seed = rng.Int63()
		return cfg
	}
	names, late := traceKernels, lateTraces
	if short {
		names, late = names[:2], 1
	}
	var out []traceCase
	for _, name := range names {
		k, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		out = append(out, traceCase{name: name, ladderCase: ladderCase{
			build: func() *program.Program { return k.Build(workloads.Config{Threads: 4, Scale: traceScale}) },
			cfg:   interleaved(),
		}})
	}
	for i := 0; i < late; i++ {
		name, progSeed := fmt.Sprintf("late_threads_%d", i), rng.Int63()
		out = append(out, traceCase{name: name, late: true, ladderCase: ladderCase{
			build: func() *program.Program { return lateProgram(name, progSeed) },
			cfg:   interleaved(),
		}})
	}
	return out, nil
}

// record runs the case with a trace recorder and returns the encoded trace.
func (c traceCase) record() ([]byte, error) {
	p := c.build()
	rec := trace.NewRecorder(p.Name)
	cfg := c.cfg
	cfg.Tracer = rec
	if _, err := runner.Run(p, cfg); err != nil {
		return nil, fmt.Errorf("recording %s: %w", c.name, err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, rec.Trace()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// lateProgram builds a lateThreads-thread program in which every thread
// after the first starts by waiting on a semaphore its predecessor signals
// part-way through its own work. Its trace keeps introducing threads and
// semaphores long after it starts, which is what makes a streamed upload
// rebuild its detector and replay the prefix each time. Threads overlap
// after each signal, and some shared stores are unlocked, so the program
// has races to report.
func lateProgram(name string, seed int64) *program.Program {
	rng := rand.New(rand.NewSource(seed))
	b := program.NewBuilder(name)
	mu := b.Mutex()
	shared := b.Space().AllocArray(64, mem.WordSize)
	sems := make([]program.SyncID, lateThreads-1)
	for i := range sems {
		sems[i] = b.Semaphore()
	}
	for k := 0; k < lateThreads; k++ {
		tb := b.Thread()
		priv := b.Space().AllocArray(256, mem.WordSize)
		if k > 0 {
			tb.Wait(sems[k-1])
		}
		tb.Region(fmt.Sprintf("stage_%d", k))
		iters := 300 + rng.Intn(150)
		signalAt := iters/2 + rng.Intn(iters*2/5)
		for i := 0; i < iters; i++ {
			if k < len(sems) && i == signalAt {
				tb.Signal(sems[k])
			}
			a := priv + mem.Addr((i%256)*mem.WordSize)
			tb.Load(a).Store(a)
			s := shared + mem.Addr(rng.Intn(64)*mem.WordSize)
			switch rng.Intn(8) {
			case 0:
				tb.Lock(mu).Load(s).Store(s).Unlock(mu)
			case 1:
				tb.Store(s)
			default:
				tb.Load(s)
			}
			tb.Compute(uint64(1 + rng.Intn(4)))
		}
	}
	return b.MustBuild()
}
