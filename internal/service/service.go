// Package service turns the demandrace compute core into a long-running
// race-analysis daemon: admission control, job lifecycle, result caching,
// and an HTTP API (served by cmd/ddserved).
//
// The design leans on the property the rest of the repository is built
// around: a simulation run is a pure function of (program, config). Purity
// buys the service layer three things for free:
//
//   - Results are content-addressable. The cache key is a hash of the
//     normalized request (or uploaded trace bytes), so an identical
//     resubmission is a cache hit without any invalidation protocol.
//   - Jobs are trivially parallel. The worker pool is a thin loop over a
//     bounded queue, layered on internal/parallel's Engine.
//   - Cancellation is clean. runner.RunContext aborts at scheduler-quantum
//     boundaries, so per-job deadlines stop runaway simulations without
//     tearing shared state.
//
// Backpressure is explicit: the submission queue is bounded, and a full
// queue rejects with ErrQueueFull, which the HTTP layer maps to 429 +
// Retry-After. Graceful shutdown stops intake (503) and drains queued and
// in-flight jobs to completion before the daemon exits.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"time"

	"demandrace/internal/cache"
	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/obs"
	"demandrace/internal/prof"
	"demandrace/internal/runner"
	"demandrace/internal/sched"
	"demandrace/internal/tenant"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle: Queued → Running → one of the terminal states.
// Cache-hit submissions are born Done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull rejects a submission because the bounded queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("service: submission queue full")
	// ErrDraining rejects a submission because the server is shutting down
	// (HTTP 503).
	ErrDraining = errors.New("service: server is draining")
	// ErrNotFound reports an unknown job ID (HTTP 404).
	ErrNotFound = errors.New("service: no such job")
)

// Request describes one kernel-analysis job: a bundled workload plus the
// runner knobs the ddrace CLI exposes. The zero value of every optional
// field means "default", and normalization is canonical — two requests
// that normalize equal share one cache entry.
type Request struct {
	// Kernel names a bundled workload (see demandrace.Kernels). Required.
	Kernel string `json:"kernel"`
	// Threads and Scale size the kernel build (defaults 4 and 1).
	Threads int `json:"threads,omitempty"`
	Scale   int `json:"scale,omitempty"`
	// Policy is the analysis policy name (default "hitm-demand").
	Policy string `json:"policy,omitempty"`
	// Scope is the demand scope name (default "global").
	Scope string `json:"scope,omitempty"`
	// Cores and SMT shape the simulated machine (defaults 4 and 1).
	Cores int `json:"cores,omitempty"`
	SMT   int `json:"smt,omitempty"`
	// Prefetch enables the next-line hardware prefetcher.
	Prefetch bool `json:"prefetch,omitempty"`
	// MOESI selects the AMD-style protocol instead of MESI.
	MOESI bool `json:"moesi,omitempty"`
	// SampleAfter, Skid program the PMU (defaults 1 and 0).
	SampleAfter uint64 `json:"sample_after,omitempty"`
	Skid        int    `json:"skid,omitempty"`
	// QuietOps, Adaptive, SampleRate, WatchCap parameterize the demand
	// controller.
	QuietOps   uint64  `json:"quiet_ops,omitempty"`
	Adaptive   bool    `json:"adaptive,omitempty"`
	SampleRate float64 `json:"sample_rate,omitempty"`
	WatchCap   int     `json:"watch_cap,omitempty"`
	// Seed drives the PMU and (with Random) the interleaving.
	Seed   int64 `json:"seed,omitempty"`
	Random bool  `json:"random,omitempty"`
	// Lockset / Deadlock enable the extra engines; FullVC selects the
	// full-vector-clock detector variant.
	Lockset  bool `json:"lockset,omitempty"`
	Deadlock bool `json:"deadlock,omitempty"`
	FullVC   bool `json:"fullvc,omitempty"`
	// Profile enables the deterministic cycle profiler; the report then
	// carries sample counts by (thread, mode, kernel site). ProfileEvery is
	// the sampling period in simulated cycles (0 = the profiler default).
	// Both participate in the cache key: a profiled result is a different
	// artifact than an unprofiled one.
	Profile      bool   `json:"profile,omitempty"`
	ProfileEvery uint64 `json:"profile_every,omitempty"`
	// TimeoutMS bounds the job's execution (0 = server default; capped at
	// the server maximum). Excluded from the cache key: a deadline changes
	// whether a result is produced, never which result.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalized fills defaults so equal-meaning requests become equal values.
func (r Request) normalized() Request {
	if r.Threads <= 0 {
		r.Threads = 4
	}
	if r.Scale <= 0 {
		r.Scale = 1
	}
	if r.Policy == "" {
		r.Policy = demand.HITMDemand.String()
	}
	if r.Scope == "" {
		r.Scope = demand.ScopeGlobal.String()
	}
	if r.Cores <= 0 {
		r.Cores = 4
	}
	if r.SMT <= 0 {
		r.SMT = 1
	}
	if r.SampleAfter == 0 {
		r.SampleAfter = 1
	}
	if r.SampleRate == 0 {
		r.SampleRate = 0.1
	}
	// Canonicalize the profiler knobs so "profile with default period" has
	// one spelling (and one cache entry), and a stray period without
	// Profile set doesn't split the cache.
	if !r.Profile {
		r.ProfileEvery = 0
	} else if r.ProfileEvery == 0 {
		r.ProfileEvery = prof.DefaultEvery
	}
	return r
}

// Validate checks the request against the bundled kernels, the policy and
// scope names, and the simulator's configuration bounds, so a request no
// run could complete is refused before it is queued.
func (r Request) Validate() error {
	if r.Kernel == "" {
		return errors.New("service: request missing kernel")
	}
	if _, ok := workloads.ByName(r.Kernel); !ok {
		return fmt.Errorf("service: unknown kernel %q", r.Kernel)
	}
	if _, _, err := r.Config(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// CacheKey hashes the normalized request minus its deadline. JSON field
// order is fixed by the struct, so the encoding is canonical. The key is
// the job's identity everywhere results are addressed: the in-memory LRU,
// the on-disk store, and ddgate's consistent-hash routing all use this
// same hash, which is what makes "the node a job routes to" and "the node
// whose caches can answer it" the same node.
func (r Request) CacheKey() string {
	n := r.normalized()
	n.TimeoutMS = 0
	b, _ := json.Marshal(n)
	sum := sha256.Sum256(append([]byte("kernel:"), b...))
	return hex.EncodeToString(sum[:])
}

// Config translates the request into the runner and workload
// configurations, failing on a name that does not parse or a knob out of
// the simulator's range. The daemon's jobs and ddrace's local runs both
// take their configuration from here.
func (r Request) Config() (runner.Config, workloads.Config, error) {
	n := r.normalized()
	pol, err := demand.ParsePolicy(n.Policy)
	if err != nil {
		return runner.Config{}, workloads.Config{}, err
	}
	scope, err := demand.ParseScope(n.Scope)
	if err != nil {
		return runner.Config{}, workloads.Config{}, err
	}
	cfg := runner.DefaultConfig()
	cfg.Cache.Cores = n.Cores
	cfg.Cache.SMT = n.SMT
	cfg.Cache.NextLinePrefetch = n.Prefetch
	if n.MOESI {
		cfg.Cache.Protocol = cache.MOESI
	}
	cfg.PMU.SampleAfter = n.SampleAfter
	cfg.PMU.Skid = n.Skid
	cfg.PMU.Seed = n.Seed
	cfg.Demand.QuietOps = n.QuietOps
	cfg.Demand.SampleRate = n.SampleRate
	cfg.Demand.Seed = n.Seed
	cfg.Demand.WatchCapacity = n.WatchCap
	cfg.Demand.Adaptive = n.Adaptive
	cfg.Demand.Scope = scope
	cfg.Lockset = n.Lockset
	cfg.Deadlock = n.Deadlock
	cfg.Detector.FullVC = n.FullVC
	cfg.Sched.Seed = n.Seed
	if n.Random {
		cfg.Sched.Policy = sched.RandomInterleave
	}
	cfg = cfg.WithPolicy(pol)
	if err := cfg.Validate(); err != nil {
		return runner.Config{}, workloads.Config{}, err
	}
	if n.Profile {
		cfg.Prof = prof.New(n.ProfileEvery)
	}
	return cfg, workloads.Config{Threads: n.Threads, Scale: n.Scale}, nil
}

// TraceOptions parameterize an uploaded-trace replay job.
type TraceOptions struct {
	// FullVC replays through the full-vector-clock detector variant.
	FullVC bool `json:"fullvc,omitempty"`
	// MaxReports caps race reports per address (0 = 1, -1 = unlimited).
	MaxReports int `json:"max_reports,omitempty"`
	// TimeoutMS bounds the job like Request.TimeoutMS.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ReplayResult is the JSON result of a trace-replay job.
type ReplayResult struct {
	Program  string            `json:"program"`
	Events   int               `json:"events"`
	Threads  int               `json:"threads"`
	HITM     int               `json:"hitm"`
	Analyzed int               `json:"analyzed"`
	Races    []detector.Report `json:"races"`
	Stats    detector.Stats    `json:"stats"`
}

// traceKeyHasher returns a hasher pre-seeded with the options prefix of
// the trace cache key. The streaming-ingest path seeds a session's hasher
// with this and feeds chunks as they arrive, so a streamed upload lands on
// the same content address as a batch upload of the same bytes — without
// ever holding the reassembled raw bytes.
func traceKeyHasher(opts TraceOptions) hash.Hash {
	h := sha256.New()
	fmt.Fprintf(h, "trace:fullvc=%v:reports=%d:", opts.FullVC, opts.MaxReports)
	return h
}

// TraceCacheKey hashes the raw trace bytes plus replay options. Like
// Request.CacheKey, it doubles as the cluster routing key for uploaded
// traces.
func TraceCacheKey(raw []byte, opts TraceOptions) string {
	h := traceKeyHasher(opts)
	h.Write(raw)
	return hex.EncodeToString(h.Sum(nil))
}

// detectorOptions normalizes replay options into detector options (the
// 0-means-1 report-cap default). Both the batch and streaming paths go
// through this, which is one of the two legs of the byte-identical-results
// guarantee (the other is replayResultFrom).
func detectorOptions(opts TraceOptions) detector.Options {
	reports := opts.MaxReports
	if reports == 0 {
		reports = 1
	}
	return detector.Options{FullVC: opts.FullVC, MaxReportsPerAddr: reports}
}

// replayResultFrom renders the result document for a replayed trace from
// its summary and final detector. The batch path and the streaming commit
// path both produce their JSON through this one function, so a streamed
// upload's sealed result is byte-identical to the batch result for the
// same bytes.
func replayResultFrom(s trace.Summary, det *detector.Detector) ReplayResult {
	return ReplayResult{
		Program:  s.Program,
		Events:   s.Events,
		Threads:  s.Threads,
		HITM:     s.HITM,
		Analyzed: s.Analyzed,
		Races:    det.Reports(),
		Stats:    det.Stats(),
	}
}

// replay runs the trace-replay job body: it decodes raw under lim straight
// into a LiveReplay, the streamed path's replay, so no event outlives its
// decoding. Detector work counters are published into reg (nil-safe) so
// replay jobs show up in the same ddrace_detector_* exposition series as
// full simulation runs.
func replay(raw []byte, lim trace.DecodeLimits, opts TraceOptions, reg *obs.Registry) (ReplayResult, error) {
	live := trace.NewLiveReplay(detectorOptions(opts))
	prog, err := trace.DecodeEach(raw, lim, live.OnEvent)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("service: replaying uploaded trace: %w", err)
	}
	det := live.Detector()
	runner.PublishDetectorStats(reg, det.Stats())
	sum := live.Summary()
	sum.Program = prog
	return replayResultFrom(sum, det), nil
}

// Job is the service's unit of work. Fields are mutated only under the
// owning Server's lock; Done is closed exactly once on reaching a terminal
// state.
type Job struct {
	id       string
	kind     string // "kernel" or "trace"
	name     string // kernel name or trace program name
	policy   string // kernel jobs only
	key      string // cache key
	timeout  time.Duration
	state    State
	errMsg   string
	cacheHit bool
	result   []byte
	done     chan struct{}
	// run executes the job body; nil for cache-hit jobs.
	run runFunc
	// enqueued is the wall-clock admission time, the start of the
	// queue-wait measurement.
	enqueued time.Time
	// span is the job's wall-clock span, parented to the submitting
	// request's span so execution logs trace back to their submission.
	span *obs.TimedSpan
	// rec collects the job's completed stage spans (queue wait, cache
	// lookup, analysis, render) so the waterfall outlives execution and
	// can be served at GET /v1/jobs/{id}/trace.
	rec *obs.SpanRecorder
	// trace is the hex trace ID the submitting request carried — the
	// correlation handle tying client, gateway, and server log lines to
	// this job.
	trace string
	// tenant attributes the job for admission accounting (nil when tenancy
	// is off): it holds a slot in its tenant's weighted share from
	// enqueue until the terminal state.
	tenant *tenant.Tenant
}

// Status is the externally visible snapshot of a job, served as JSON by
// GET /v1/jobs/{id}.
type Status struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Name     string `json:"name"`
	Policy   string `json:"policy,omitempty"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`
}
