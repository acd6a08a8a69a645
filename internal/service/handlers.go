package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"strconv"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/alert"
	"demandrace/internal/obs/stream"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/obs/tsdb"
	"demandrace/internal/tenant"
	"demandrace/internal/trace"
)

// TraceContentType is the media type of a binary trace upload; raw
// application/octet-stream is accepted as a synonym.
const TraceContentType = "application/x-ddrace-trace"

// route is one row of the API surface ddserved and ddgate both serve: a
// mux pattern and the stable key naming its latency histogram and
// /v1/stats row. quiet routes are polled by infrastructure, so their
// access logs emit at debug. stream routes hold their connection open
// indefinitely (SSE), so they bypass the latency histogram and SLO
// accounting — an hour-long tail is not an hour-long request.
type route struct {
	pattern string
	key     string
	quiet   bool
	stream  bool
}

// routes is the API surface in a fixed order — the order /v1/stats
// reports endpoints in. The /v1/cache rows are fleet-internal: ddgate
// mounts no handler for them.
var routes = []route{
	{"POST /v1/jobs", "post_jobs", false, false},
	{"POST /v1/traces", "post_traces", false, false},
	{"PUT /v1/traces/{id}/chunks/{seq}", "put_trace_chunk", false, false},
	{"GET /v1/traces/{id}", "get_trace_session", false, false},
	{"POST /v1/traces/{id}/commit", "post_trace_commit", false, false},
	{"GET /v1/jobs/{id}", "get_job", false, false},
	{"GET /v1/jobs/{id}/trace", "get_job_trace", false, false},
	{"GET /v1/jobs/{id}/partial", "get_job_partial", false, false},
	{"GET /v1/results/{id}", "get_result", false, false},
	{"GET /v1/cache", "get_cache_keys", true, false},
	{"GET /v1/cache/{key}", "get_cache_entry", true, false},
	{"PUT /v1/cache/{key}", "put_cache_entry", true, false},
	{"GET /v1/timeseries", "get_timeseries", true, false},
	{"GET /v1/events", "get_events", true, true},
	{"GET /v1/alerts", "get_alerts", true, false},
	{"GET /v1/dashboard", "get_dashboard", true, false},
	{"GET /v1/stats", "get_stats", true, false},
	{"GET /healthz", "healthz", true, false},
	{"GET /metrics", "metrics", true, false},
}

// Instrumentation is what the two tiers' request middleware differs in.
type Instrumentation struct {
	Registry *obs.Registry
	Log      *slog.Logger
	// Requests names the counter of every request the mux serves;
	// LatencyPrefix + route key names each route's latency histogram.
	Requests      string
	LatencyPrefix string
	// SpanPrefix + route key names each request's span ("http:" on
	// ddserved, "gate:" on ddgate, where it lands in merged waterfalls).
	SpanPrefix string
	// SLORequests and SLOBreaches count measured requests and those slower
	// than SLOLatency; nil handles (ddgate keeps no SLO) count nothing.
	SLOLatency               time.Duration
	SLORequests, SLOBreaches *obs.Counter
}

// Mount serves handlers, keyed by route key, on the shared route table,
// each wrapped in the observability middleware: a wall-clock span, a
// per-route latency histogram, the SLO counters, and a structured
// access-log line (method, path, status, bytes, dur_ms). A route left
// without a handler is not mounted and answers 404.
func Mount(in Instrumentation, handlers map[string]http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mounted := 0
	for _, rt := range routes {
		if h := handlers[rt.key]; h != nil {
			mux.Handle(rt.pattern, in.instrument(rt, h))
			mounted++
		}
	}
	if mounted != len(handlers) {
		panic("service: Mount given a handler for an unknown route key")
	}
	counted := in.Registry.Counter(in.Requests)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		counted.Inc()
		mux.ServeHTTP(w, r)
	})
}

// Handler returns the service API (see cmd/ddserved for the route list).
// Submissions answer 202 (accepted), 200 (cache hit, already done), 400
// (malformed), 413 (upload over limits), 429 + Retry-After (queue full),
// or 503 (draining).
func (s *Server) Handler() http.Handler {
	return Mount(Instrumentation{
		Registry:      s.reg,
		Log:           s.log,
		Requests:      obs.SvcHTTPRequests,
		LatencyPrefix: obs.SvcHTTPLatencyPrefix,
		SpanPrefix:    "http:",
		SLOLatency:    s.cfg.SLOLatency,
		SLORequests:   s.reg.Counter(obs.SvcSLORequests),
		SLOBreaches:   s.reg.Counter(obs.SvcSLOBreaches),
	}, map[string]http.HandlerFunc{
		"post_jobs":         s.handleSubmit,
		"post_traces":       s.handleTraceOpen,
		"put_trace_chunk":   s.handleTraceChunk,
		"get_trace_session": s.handleTraceSession,
		"post_trace_commit": s.handleTraceCommit,
		"get_job":           s.handleStatus,
		"get_job_trace":     s.handleJobTrace,
		"get_job_partial":   s.handlePartial,
		"get_result":        s.handleResult,
		"get_cache_keys":    s.handleCacheKeys,
		"get_cache_entry":   s.handleCacheGet,
		"put_cache_entry":   s.handleCachePut,
		"get_timeseries":    s.handleTimeseries,
		"get_events":        func(w http.ResponseWriter, r *http.Request) { stream.ServeSSE(w, r, s.bus) },
		"get_alerts":        func(w http.ResponseWriter, _ *http.Request) { WriteJSON(w, http.StatusOK, s.alerts.Doc()) },
		"get_dashboard":     func(w http.ResponseWriter, _ *http.Request) { alert.ServeConsole(w, s.cfg.Node) },
		"get_stats":         func(w http.ResponseWriter, _ *http.Request) { WriteJSON(w, http.StatusOK, s.Stats()) },
		"healthz":           s.handleHealth,
		"metrics":           ServeMetrics(s.reg),
	})
}

// statusRecorder captures the status code and body bytes a handler wrote,
// for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += n
	return n, err
}

// instrument wraps one route with the request-scoped observability stack.
// Incoming traceparent headers are parsed (or a fresh root trace minted)
// before anything else, so the span, the access log, and whatever the
// handler admits all share one trace ID.
func (in Instrumentation) instrument(rt route, handler http.HandlerFunc) http.Handler {
	hist := in.Registry.Histogram(in.LatencyPrefix+rt.key, obs.LatencyBuckets)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, _ := tracectx.FromHeader(r.Header.Get)
		ctx := tracectx.Into(r.Context(), tc)
		if rt.stream {
			// SSE: hand the raw writer through (the recorder would hide
			// http.Flusher) and log open/close instead of a latency line.
			in.Log.Debug("event stream open", "path", r.URL.Path, "trace_id", tc.TraceID())
			handler(w, r.WithContext(ctx))
			in.Log.Debug("event stream closed", "path", r.URL.Path, "trace_id", tc.TraceID())
			return
		}
		ctx, span := obs.StartSpan(ctx, in.SpanPrefix+rt.key)
		span.SetAttr("trace_id", tc.TraceID())
		span.ObserveInto(hist)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		handler(rec, r.WithContext(ctx))
		dur := span.End()

		in.SLORequests.Inc()
		if dur > in.SLOLatency {
			in.SLOBreaches.Inc()
		}
		logf := in.Log.Info
		if rt.quiet {
			logf = in.Log.Debug
		}
		logf("http request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", rt.key,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur_ms", float64(dur)/float64(time.Millisecond),
			"trace_id", tc.TraceID(),
		)
	})
}

// AdmitTenant runs the tenant gate for one submission: resolve the API
// key (401 on an unknown key while tenancy is on), stamp the resolved
// tenant name into the response header, and spend an admission token
// (429 + the tenant's own Retry-After horizon on exhaustion, counted in
// rejected). ok=false means the response has been written. With tenancy
// off it admits with a nil tenant.
func AdmitTenant(w http.ResponseWriter, r *http.Request, reg *tenant.Registry, log *slog.Logger, rejected *obs.Counter) (*tenant.Tenant, bool) {
	tn, err := reg.Resolve(r.Header.Get(tenant.HeaderAPIKey))
	if err != nil {
		WriteError(w, http.StatusUnauthorized, err.Error())
		return nil, false
	}
	if tn != nil {
		w.Header().Set(tenant.HeaderTenant, tn.Name())
	}
	if ra, ok := reg.Admit(tn); !ok {
		rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		log.Warn("job rejected", "reason", "tenant throttled", "tenant", tn.Name(), "retry_after_s", ra)
		WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q: admission budget exhausted, retry in %ds", tn.Name(), ra))
		return nil, false
	}
	return tn, true
}

// countingReader counts the bytes a submission actually consumed, for
// per-tenant usage accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn, admitted := AdmitTenant(w, r, s.tenants, s.log, s.cReject)
	if !admitted {
		return
	}
	ctx := tenant.Into(r.Context(), tn)
	body := &countingReader{r: r.Body}
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var (
		st  Status
		err error
	)
	switch ct {
	case TraceContentType, "application/octet-stream":
		st, err = s.SubmitTrace(ctx, body, ParseTraceOptions(r.URL.Query()))
	default:
		var req Request
		if derr := json.NewDecoder(body).Decode(&req); derr != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", derr))
			return
		}
		st, err = s.Submit(ctx, req)
	}
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.tenants.Account(tn, body.n, st.CacheHit)
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK // cache hit: the result is already fetchable
	}
	WriteJSON(w, code, st)
}

// writeSubmitError maps admission errors onto status codes.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var lim *trace.LimitError
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &lim):
		WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	data, st, err := s.Result(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	switch st.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	case StateFailed:
		WriteError(w, http.StatusInternalServerError, st.Error)
	case StateCanceled:
		WriteError(w, http.StatusGatewayTimeout, st.Error)
	default:
		// Not terminal yet: tell the poller to come back.
		WriteJSON(w, http.StatusConflict, st)
	}
}

// Health states, in degradation order. Load balancers should route traffic
// only to "ok" backends; "degraded" (queue past the high-water mark) and
// "draining" both answer 503 so shedding starts before hard 429 rejections.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthDraining = "draining"
)

// Health reports the server's current health state and queue occupancy.
func (s *Server) Health() (state string, queued, inflight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	queued = len(s.queue)
	inflight = s.inflight
	switch {
	case s.closed:
		state = HealthDraining
	case queued > s.cfg.QueueHighWater:
		state = HealthDegraded
	default:
		state = HealthOK
	}
	return state, queued, inflight
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	state, queued, inflight := s.Health()
	pending, firing := s.alerts.Counts()
	// Per-subsystem detail makes the degraded→503 transition explainable
	// from the response alone: which gauge crossed which bound.
	subsystems := map[string]any{
		"queue": map[string]any{
			"depth":      queued,
			"capacity":   s.cfg.QueueDepth,
			"high_water": s.cfg.QueueHighWater,
			"degraded":   queued > s.cfg.QueueHighWater,
		},
		"workers": map[string]any{
			"width":           s.cfg.Workers,
			"inflight":        inflight,
			"utilization_pct": s.gUtil.Value(),
		},
		"ingest": map[string]any{
			"open_sessions": s.ing.Len(),
			"max_sessions":  s.ing.Config().MaxSessions,
		},
		"alerts": map[string]any{
			"pending": pending,
			"firing":  firing,
		},
	}
	if s.cfg.Store != nil {
		subsystems["store"] = map[string]any{
			"dir":     s.cfg.Store.Dir(),
			"entries": s.cfg.Store.Len(),
			"bytes":   s.cfg.Store.Size(),
		}
	}
	if s.tenants.Enabled() {
		ts := s.tenants.StatsSnapshot()
		var throttled uint64
		for _, t := range ts {
			throttled += t.Throttled
		}
		subsystems["tenants"] = map[string]any{
			"count":     len(ts),
			"throttled": throttled,
		}
	}
	body := map[string]any{
		"status":     state,
		"queued":     queued,
		"inflight":   inflight,
		"high_water": s.cfg.QueueHighWater,
		"subsystems": subsystems,
	}
	code := http.StatusOK
	if state != HealthOK {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, body)
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	data, err := s.JobTrace(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	since, err := tsdb.ParseSince(r.URL.Query().Get("since"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, s.ts.Doc(r.URL.Query().Get("metric"), since))
}

// ServeMetrics serves reg as Prometheus text exposition (GET /metrics).
func ServeMetrics(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		// Scrape time is an observation point: refresh the process-level
		// runtime gauges so goroutine/heap/GC numbers are current.
		obs.UpdateProcessGauges(reg)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteProm(w); err != nil {
			// Headers are gone; nothing useful left to do but note it.
			fmt.Fprintf(w, "# write error: %v\n", err)
		}
	}
}

// WriteJSON answers code with v as a JSON document.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers code with the {"error": msg} document both tiers use.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
