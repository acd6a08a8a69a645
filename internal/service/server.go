package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"demandrace/internal/ingest"
	"demandrace/internal/obs"
	"demandrace/internal/obs/alert"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/obs/stream"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/obs/tsdb"
	"demandrace/internal/parallel"
	"demandrace/internal/runner"
	"demandrace/internal/sched"
	"demandrace/internal/store"
	"demandrace/internal/tenant"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// Config shapes a Server. Zero fields take defaults.
type Config struct {
	// Workers is the analysis worker-pool width (0 = one per CPU).
	Workers int
	// QueueDepth bounds the submission queue; a full queue rejects with
	// ErrQueueFull (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (default 256; negative disables
	// caching entirely).
	CacheEntries int
	// DefaultTimeout applies to jobs that request none (default 30s);
	// MaxTimeout caps what a request may ask for (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxTraceBytes / MaxTraceEvents bound uploaded traces (defaults
	// 64 MiB / 4 Mi events). Both the one-shot POST /v1/jobs upload and a
	// whole streamed session are held to the same limits.
	MaxTraceBytes  int64
	MaxTraceEvents uint64
	// IngestSessions bounds concurrently open streaming-upload sessions;
	// IngestChunkBytes bounds one chunk's payload; IngestIdle is how long
	// a session may sit idle before the GC reclaims it. Zero values take
	// the internal/ingest defaults (64 sessions, 4 MiB, 2m).
	IngestSessions   int
	IngestChunkBytes int64
	IngestIdle       time.Duration
	// Registry receives service metrics, and — because runner counters
	// commute — the aggregated ddrace_* counters of every executed job.
	// Nil builds a private one.
	Registry *obs.Registry
	// QueueHighWater is the queue depth at which /healthz starts answering
	// degraded (503-with-body), so load balancers shed before the queue
	// hard-rejects with 429 (0 = three quarters of QueueDepth).
	QueueHighWater int
	// SLOLatency and SLOTarget define the request-latency SLO reported by
	// GET /v1/stats: SLOTarget of requests must complete within SLOLatency
	// (defaults 500ms and 0.99).
	SLOLatency time.Duration
	SLOTarget  float64
	// Log receives operational logs — request access lines, job lifecycle
	// events, drain progress. Nil discards them.
	Log *slog.Logger
	// Store is an optional on-disk result store backing the LRU cache, so
	// cache contents survive restarts (ddserved -store-dir). The server
	// does not own it: the caller opens it before NewServer and closes it
	// after Shutdown.
	Store *store.Store
	// Node names this process in GET /v1/stats, so gateway-aggregated
	// stats stay distinguishable from single-node stats (default
	// "ddserved").
	Node string
	// TSInterval and TSRetention shape the in-memory metrics history
	// behind GET /v1/timeseries: one sample of every registry metric per
	// interval, retained for the window (defaults 5s and 1h; see
	// internal/obs/tsdb).
	TSInterval  time.Duration
	TSRetention time.Duration
	// AlertRules overrides the compiled-in alert rule set evaluated on
	// every timeseries tick (ddserved -alert-rules). Nil takes
	// alert.ServiceDefaults derived from this Config; rules that fail
	// validation are logged and replaced by the defaults — loading from a
	// file should validate first via alert.LoadRulesFile.
	AlertRules []alert.Rule
	// Tenants, when non-empty, turns on multi-tenant admission (ddserved
	// -tenants): every submission must carry a known X-API-Key, and each
	// tenant is held to its token bucket and weighted share of QueueDepth.
	// Empty means tenancy off — no key required, nothing throttled.
	Tenants []tenant.Config
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = parallel.DefaultWorkers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxTraceBytes <= 0 {
		c.MaxTraceBytes = 64 << 20
	}
	if c.MaxTraceEvents == 0 {
		c.MaxTraceEvents = 1 << 22
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.QueueHighWater <= 0 || c.QueueHighWater > c.QueueDepth {
		c.QueueHighWater = c.QueueDepth * 3 / 4
		if c.QueueHighWater < 1 {
			c.QueueHighWater = 1
		}
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 500 * time.Millisecond
	}
	if c.SLOTarget <= 0 || c.SLOTarget >= 1 {
		c.SLOTarget = 0.99
	}
	if c.Log == nil {
		c.Log = olog.Discard()
	}
	if c.Node == "" {
		c.Node = "ddserved"
	}
	return c
}

// runFunc is a job body: pure work under a deadline context.
type runFunc func(ctx context.Context) ([]byte, error)

// Server is the race-analysis service: a bounded submission queue feeding a
// worker pool, a content-addressed result cache, and a job store. Build
// with NewServer, call Start to launch the workers, serve Handler over
// HTTP, and Shutdown to drain.
type Server struct {
	cfg Config
	reg *obs.Registry
	eng *parallel.Engine

	queue   chan *Job
	drained chan struct{}
	cache   *resultCache
	bus     *stream.Bus
	ts      *tsdb.DB
	ing     *ingest.Manager
	alerts  *alert.Engine
	tenants *tenant.Registry // nil when tenancy is off

	mu       sync.Mutex
	jobs     map[string]*Job
	seq      uint64
	closed   bool // intake stopped (draining)
	started  bool
	inflight int

	// baseCtx parents every job context; canceling it is the hard-stop
	// escape hatch when a drain deadline expires.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	log   *slog.Logger
	start time.Time

	gQueue    *obs.Gauge
	gInflight *obs.Gauge
	gUtil     *obs.Gauge
	cSubmit   *obs.Counter
	cComplete *obs.Counter
	cFail     *obs.Counter
	cCancel   *obs.Counter
	cReject   *obs.Counter
	hWait     *obs.Histogram
	hJobDur   *obs.Histogram
}

// NewServer builds a stopped server; call Start to launch the worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.normalized()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		eng:     parallel.New(cfg.Workers),
		queue:   make(chan *Job, cfg.QueueDepth),
		drained: make(chan struct{}),
		cache:   newResultCache(cfg.CacheEntries, cfg.Registry, cfg.Store),
		bus:     stream.NewBus(cfg.Node),
		ts: tsdb.New(tsdb.Options{
			Registry:  cfg.Registry,
			Node:      cfg.Node,
			Interval:  cfg.TSInterval,
			Retention: cfg.TSRetention,
			Runtime:   true,
		}),
		jobs:       make(map[string]*Job),
		baseCtx:    baseCtx,
		baseCancel: cancel,
		log:        cfg.Log,
		start:      time.Now(),
		gQueue:     cfg.Registry.Gauge(obs.SvcQueueDepth),
		gInflight:  cfg.Registry.Gauge(obs.SvcJobsInflight),
		gUtil:      cfg.Registry.Gauge(obs.SvcWorkerUtilization),
		cSubmit:    cfg.Registry.Counter(obs.SvcJobsSubmitted),
		cComplete:  cfg.Registry.Counter(obs.SvcJobsCompleted),
		cFail:      cfg.Registry.Counter(obs.SvcJobsFailed),
		cCancel:    cfg.Registry.Counter(obs.SvcJobsCanceled),
		cReject:    cfg.Registry.Counter(obs.SvcJobsRejected),
		hWait:      cfg.Registry.Histogram(obs.SvcQueueWait, obs.LatencyBuckets),
		hJobDur:    cfg.Registry.Histogram(obs.SvcJobDuration, obs.LatencyBuckets),
	}
	// The tenant registry shares the queue depth (its weighted shares
	// divide the same capacity the queue enforces) and the bus (throttle
	// edges surface on the same stream as job lifecycle events). Nil when
	// Config.Tenants is empty: every call site is nil-safe.
	s.tenants = tenant.NewRegistry(cfg.Tenants, tenant.Options{
		Prefix:   "ddserved_",
		Capacity: cfg.QueueDepth,
		Registry: cfg.Registry,
		Bus:      s.bus,
	})
	// The ingest manager shares the server's bus, registry, and trace
	// limits, so streamed sessions surface through the same event stream,
	// metrics exposition, and 413 thresholds as batch uploads.
	s.ing = ingest.NewManager(ingest.Config{
		MaxSessions:   cfg.IngestSessions,
		MaxChunkBytes: cfg.IngestChunkBytes,
		IdleTimeout:   cfg.IngestIdle,
		Limits: trace.DecodeLimits{
			MaxEvents: cfg.MaxTraceEvents,
			MaxBytes:  cfg.MaxTraceBytes,
		},
		Node:     cfg.Node,
		Registry: cfg.Registry,
		Log:      cfg.Log,
		Bus:      s.bus,
	})
	// The alert engine watches the same tsdb the operator reads, hanging
	// its evaluation on the sampling tick so every rule sees each tick's
	// samples exactly once. Invalid programmatic rule sets fall back to
	// the defaults rather than leaving the service unwatched (file-loaded
	// rules were already validated by alert.LoadRulesFile in main).
	rules := cfg.AlertRules
	if rules == nil {
		rules = alert.ServiceDefaults(cfg.SLOTarget, cfg.QueueHighWater)
	}
	acfg := alert.Config{
		Node:     cfg.Node,
		Rules:    rules,
		Source:   s.ts,
		Bus:      s.bus,
		Registry: cfg.Registry,
		Log:      cfg.Log,
	}
	eng, err := alert.New(acfg)
	if err != nil {
		cfg.Log.Error("invalid alert rules, using defaults", "error", err)
		acfg.Rules = alert.ServiceDefaults(cfg.SLOTarget, cfg.QueueHighWater)
		eng, _ = alert.New(acfg)
	}
	s.alerts = eng
	s.ts.SetOnTick(eng.EvalNow)
	return s
}

// Registry returns the server's metrics registry (served at /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Events returns the server's live event bus (served at GET /v1/events).
func (s *Server) Events() *stream.Bus { return s.bus }

// TimeSeries returns the server's metrics history (GET /v1/timeseries).
func (s *Server) TimeSeries() *tsdb.DB { return s.ts }

// Ingest returns the server's streaming-upload session manager.
func (s *Server) Ingest() *ingest.Manager { return s.ing }

// Alerts returns the server's alert engine (served at GET /v1/alerts).
func (s *Server) Alerts() *alert.Engine { return s.alerts }

// Tenants returns the server's tenant registry (nil when tenancy is off).
func (s *Server) Tenants() *tenant.Registry { return s.tenants }

// Config returns the server's normalized configuration.
func (s *Server) Config() Config { return s.cfg }

// Start launches the worker pool. The pool is Config.Workers loops over
// the shared queue, bounded by an internal/parallel Engine, so pool busy
// time shows up in the engine's stats like every other fan-out in the
// repository. Start is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.ts.Start()
	s.ing.Start()
	go func() {
		defer close(s.drained)
		_ = parallel.ForEach(context.Background(), s.eng, s.cfg.Workers,
			func(context.Context, int) error {
				for job := range s.queue {
					s.execute(job)
				}
				return nil
			})
	}()
}

// Shutdown drains gracefully: intake stops (submissions get ErrDraining),
// queued and in-flight jobs run to completion, and the call returns once
// the pool exits. If ctx expires first, in-flight jobs are hard-canceled
// through their contexts and the ctx error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	defer s.ts.Stop()
	defer s.ing.Stop()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	started := s.started
	s.mu.Unlock()
	if !started {
		return nil
	}
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-s.drained
		return ctx.Err()
	}
}

// Draining reports whether intake has been stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// timeoutFor clamps a requested per-job deadline to server policy.
func (s *Server) timeoutFor(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// Submit validates and admits a kernel-analysis job: a cache hit completes
// immediately, otherwise the job is enqueued. ErrQueueFull and ErrDraining
// are the backpressure signals. ctx scopes the admission only (span
// parentage, log correlation) — the job body runs under its own deadline
// context; context.Background is fine for non-HTTP callers.
func (s *Server) Submit(ctx context.Context, req Request) (Status, error) {
	if err := req.Validate(); err != nil {
		return Status{}, err
	}
	n := req.normalized()
	rcfg, kc, err := n.Config()
	if err != nil {
		return Status{}, err
	}
	// Jobs publish their simulation counters into the shared registry;
	// counters commute, so totals are well-defined at any concurrency.
	rcfg.Metrics = s.reg
	kernel, _ := workloads.ByName(n.Kernel)
	j := &Job{
		kind:    "kernel",
		name:    n.Kernel,
		policy:  n.Policy,
		key:     n.CacheKey(),
		timeout: s.timeoutFor(n.TimeoutMS),
		done:    make(chan struct{}),
		run: func(ctx context.Context) ([]byte, error) {
			actx, span := obs.StartSpan(ctx, "analysis")
			rep, err := runner.RunContext(actx, kernel.Build(kc), rcfg)
			span.End()
			if err != nil {
				return nil, err
			}
			_, rspan := obs.StartSpan(ctx, "render")
			data, err := json.Marshal(rep)
			rspan.End()
			return data, err
		},
	}
	return s.admit(ctx, j)
}

// SubmitTrace checks an uploaded binary trace under the server's limits
// and admits a replay job. Oversized or malformed uploads fail here, before
// anything is queued; a *trace.LimitError is returned as-is so the HTTP
// layer can answer 413. The check decodes without keeping events: the job
// holds only the upload's bytes, and its worker decodes them again
// straight into the replay.
func (s *Server) SubmitTrace(ctx context.Context, r io.Reader, opts TraceOptions) (Status, error) {
	rec := obs.NewSpanRecorder(s.cfg.Node, 0)
	decStart := time.Now()
	raw, err := readAllLimited(r, s.cfg.MaxTraceBytes)
	if err != nil {
		return Status{}, err
	}
	lim := trace.DecodeLimits{MaxEvents: s.cfg.MaxTraceEvents, MaxBytes: s.cfg.MaxTraceBytes}
	events := 0
	prog, err := trace.DecodeEach(raw, lim, func(*trace.Event) { events++ })
	if err != nil {
		return Status{}, fmt.Errorf("service: decoding uploaded trace: %w", err)
	}
	rec.Add(obs.SpanRecord{
		Name: "trace_decode", Start: decStart, Dur: time.Since(decStart),
		Attrs: []obs.SpanAttr{{Key: "events", Value: fmt.Sprint(events)}},
	})
	j := &Job{
		kind:    "trace",
		name:    prog,
		key:     TraceCacheKey(raw, opts),
		timeout: s.timeoutFor(opts.TimeoutMS),
		done:    make(chan struct{}),
		rec:     rec,
		run: func(ctx context.Context) ([]byte, error) {
			// Replay cost is bounded by the decode limits; honor the
			// deadline between construction and the (fast) replay.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			_, span := obs.StartSpan(ctx, "analysis")
			res, err := replay(raw, lim, opts, s.reg)
			span.End()
			if err != nil {
				return nil, err
			}
			_, rspan := obs.StartSpan(ctx, "render")
			data, err := json.Marshal(res)
			rspan.End()
			return data, err
		},
	}
	return s.admit(ctx, j)
}

// readAllLimited reads at most max bytes, failing with a typed
// *trace.LimitError when the input is larger.
func readAllLimited(r io.Reader, max int64) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, fmt.Errorf("service: reading upload: %w", err)
	}
	if int64(len(raw)) > max {
		return nil, &trace.LimitError{What: "bytes", Limit: uint64(max), Got: uint64(len(raw))}
	}
	return raw, nil
}

// admit registers j and either completes it from the cache or enqueues it.
// The job's span is parented to the span in ctx (the submitting HTTP
// request), so execution-side logs and metrics trace back to the request
// that caused them; the trace context in ctx (if any) becomes the job's
// trace ID, correlating client, gateway, and server views of one request.
func (s *Server) admit(ctx context.Context, j *Job) (Status, error) {
	if tc, ok := tracectx.From(ctx); ok {
		j.trace = tc.TraceID()
	}
	j.tenant = tenant.From(ctx)
	if j.rec == nil {
		j.rec = obs.NewSpanRecorder(s.cfg.Node, 0)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.cReject.Inc()
		s.log.Warn("job rejected", "reason", "draining", "kind", j.kind, "name", j.name)
		return Status{}, ErrDraining
	}
	lookupStart := time.Now()
	data, hit, source, diskDur := s.cache.lookup(j.key)
	attrs := []obs.SpanAttr{{Key: "hit", Value: fmt.Sprint(hit)}}
	if source != "" {
		attrs = append(attrs, obs.SpanAttr{Key: "source", Value: source})
	}
	j.rec.Add(obs.SpanRecord{
		Name: "cache_lookup", Start: lookupStart, Dur: time.Since(lookupStart), Attrs: attrs,
	})
	if source == "disk" {
		j.rec.Add(obs.SpanRecord{Name: "store_read", Start: lookupStart, Dur: diskDur})
	}
	if hit {
		s.seq++
		j.id = fmt.Sprintf("j-%d", s.seq)
		j.state = StateDone
		j.result = data
		j.cacheHit = true
		close(j.done)
		s.jobs[j.id] = j
		st := s.statusLocked(j)
		s.mu.Unlock()
		s.cSubmit.Inc()
		s.log.Info("job done", j.logAttrs("state", string(StateDone), "cache_hit", true)...)
		s.bus.Publish(stream.Event{
			Type: stream.TypeCacheHit, Job: j.id, Trace: j.trace,
			Detail: map[string]string{"kind": j.kind, "name": j.name, "source": source},
		})
		return st, nil
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.cReject.Inc()
		s.log.Warn("job rejected", "reason", "queue full", "kind", j.kind, "name", j.name)
		return Status{}, ErrQueueFull
	}
	s.seq++
	j.id = fmt.Sprintf("j-%d", s.seq)
	j.state = StateQueued
	j.enqueued = time.Now()
	_, j.span = obs.StartSpan(ctx, "job")
	j.span.RecordInto(j.rec)
	j.span.SetAttr("job_id", j.id)
	if j.trace != "" {
		j.span.SetAttr("trace_id", j.trace)
	}
	// The queued event goes out before the job is visible to a worker, so
	// subscribers always see queued → started → done in causal order.
	// Publish never blocks (per-subscriber drop-oldest rings), so holding
	// s.mu across it is safe.
	s.bus.Publish(stream.Event{
		Type: stream.TypeJobQueued, Job: j.id, Trace: j.trace,
		Detail: map[string]string{"kind": j.kind, "name": j.name},
	})
	// The job must be fully initialized before it becomes visible to a
	// worker. The send cannot block: every send happens under s.mu and we
	// just saw spare capacity (receives only ever free it up).
	s.queue <- j
	s.jobs[j.id] = j
	s.gQueue.Set(int64(len(s.queue)))
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.cSubmit.Inc()
	// The job now occupies queue capacity: it counts against its tenant's
	// weighted share until execute retires it.
	s.tenants.Begin(j.tenant)
	s.log.Info("job queued", j.logAttrs("policy", j.policy, "timeout_ms", j.timeout.Milliseconds())...)
	return st, nil
}

// logAttrs builds the common structured-log fields for a job, including
// the trace ID when the submission carried one.
func (j *Job) logAttrs(extra ...any) []any {
	attrs := []any{"job_id", j.id, "kind", j.kind, "name", j.name}
	if j.trace != "" {
		attrs = append(attrs, "trace_id", j.trace)
	}
	return append(attrs, extra...)
}

// execute runs one dequeued job to a terminal state. Panics in the job
// body are contained: the job fails, the worker survives.
func (s *Server) execute(j *Job) {
	wait := time.Since(j.enqueued)
	s.hWait.Observe(float64(wait) / float64(time.Millisecond))
	j.rec.Add(obs.SpanRecord{Name: "queue_wait", Start: j.enqueued, Dur: wait})

	s.mu.Lock()
	j.state = StateRunning
	s.inflight++
	s.gInflight.Set(int64(s.inflight))
	s.gUtil.Set(int64(100 * s.inflight / s.cfg.Workers))
	s.gQueue.Set(int64(len(s.queue)))
	s.mu.Unlock()

	s.log.Info("job start", j.logAttrs("queue_wait_ms", float64(wait)/float64(time.Millisecond))...)
	s.bus.Publish(stream.Event{
		Type: stream.TypeJobStarted, Job: j.id, Trace: j.trace,
		Detail: map[string]string{"kind": j.kind, "name": j.name},
	})

	jobLog := s.log.With("job_id", j.id)
	if j.trace != "" {
		jobLog = jobLog.With("trace_id", j.trace)
	}
	runStart := time.Now()
	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	// Re-attach the job's span so stage spans started inside the body
	// (analysis, render) parent under it and land in the job's recorder.
	ctx = obs.WithSpan(ctx, j.span)
	ctx = olog.WithJobID(ctx, j.id)
	ctx = olog.Into(ctx, jobLog)
	data, err := func() (data []byte, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("service: job panicked: %v", p)
			}
		}()
		return j.run(ctx)
	}()
	cancel()
	// The histogram and log line report the execution slice a worker spent;
	// the span, ended here, covers the job end-to-end (wait + execution)
	// under its submitting request's lineage.
	runDur := time.Since(runStart)
	s.hJobDur.Observe(float64(runDur) / float64(time.Millisecond))
	j.span.End()

	s.mu.Lock()
	// The body has run; dropping it frees what it captured (a trace job's
	// upload bytes) for as long as the job stays listed.
	j.run = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = data
		s.cache.put(j.key, data)
		s.cComplete.Inc()
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = err.Error()
		s.cCancel.Inc()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.cFail.Inc()
	}
	state := j.state
	s.inflight--
	s.gInflight.Set(int64(s.inflight))
	s.gUtil.Set(int64(100 * s.inflight / s.cfg.Workers))
	s.mu.Unlock()
	close(j.done)
	s.tenants.End(j.tenant)

	attrs := j.logAttrs("state", string(state),
		"dur_ms", float64(runDur)/float64(time.Millisecond))
	var interrupted *sched.InterruptedError
	if errors.As(err, &interrupted) {
		attrs = append(attrs, "steps_at_interrupt", interrupted.Steps)
	}
	switch state {
	case StateDone:
		s.log.Info("job done", attrs...)
	default:
		s.log.Warn("job done", append(attrs, "error", j.errMsg)...)
	}
	detail := map[string]string{"kind": j.kind, "name": j.name, "state": string(state)}
	if state == StateDone {
		// The result's cache key: what a gateway tailing this stream
		// replicates and read-repairs the job by.
		detail["key"] = j.key
	}
	s.bus.Publish(stream.Event{Type: stream.TypeJobDone, Job: j.id, Trace: j.trace, Detail: detail})
}

// Status returns the snapshot of a job.
func (s *Server) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return s.statusLocked(j), nil
}

// Result returns a done job's marshaled result. The boolean distinguishes
// "no result yet" (false, with the current status) from done.
func (s *Server) Result(id string) ([]byte, Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, Status{}, ErrNotFound
	}
	return j.result, s.statusLocked(j), nil
}

// JobTrace renders a job's recorded stage spans as a Chrome trace-event
// waterfall (the GET /v1/jobs/{id}/trace body). The document is complete
// once the job is terminal; fetched earlier it shows the stages finished
// so far.
func (s *Server) JobTrace(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	state := j.state
	traceID := j.trace
	s.mu.Unlock()
	extra := map[string]string{
		"job_id": id,
		"node":   s.cfg.Node,
		"state":  string(state),
	}
	if traceID != "" {
		extra["trace_id"] = traceID
	}
	return obs.EncodeSpanTrace("job "+id, j.rec.Records(), extra)
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Server) Wait(ctx context.Context, id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// QueueLen returns the number of queued (not yet running) jobs.
func (s *Server) QueueLen() int { return len(s.queue) }

func (s *Server) statusLocked(j *Job) Status {
	return Status{
		ID:       j.id,
		Kind:     j.kind,
		Name:     j.name,
		Policy:   j.policy,
		State:    j.state,
		CacheHit: j.cacheHit,
		Error:    j.errMsg,
	}
}
