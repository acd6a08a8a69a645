package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/alert"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/obs/stream"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/obs/tsdb"
	"demandrace/internal/replica"
	"demandrace/internal/service"
	"demandrace/internal/tenant"
)

// Config shapes a Gateway. Zero fields take defaults.
type Config struct {
	// Backends is the cluster membership, in any order (ring placement
	// depends only on names). Required, non-empty, unique names.
	Backends []Backend
	// VNodes is the virtual-node count per backend (default DefaultVNodes).
	VNodes int
	// Retry is the forward policy: Retries bounds how many *additional*
	// replicas a failed submission tries, Backoff paces them (exponential
	// + jitter via Options.BackoffFor), and Timeout bounds each upstream
	// attempt. Defaults: 2 retries, 100ms backoff, 2m attempt timeout.
	Retry service.Options
	// HedgeAfter launches a hedged duplicate of a submission to the next
	// replica when the owner hasn't answered within this threshold; the
	// first response wins and the loser is canceled through its context
	// (0 disables hedging).
	HedgeAfter time.Duration
	// ProbeInterval paces the background health probes (default 1s);
	// ProbeTimeout bounds each probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailAfter is the consecutive probe failures before a backend is
	// evicted from the ring (default 2).
	FailAfter int
	// MaxBodyBytes bounds request bodies buffered for replay (default
	// 64 MiB, matching ddserved's trace cap).
	MaxBodyBytes int64
	// StatsTimeout bounds each per-backend fetch during /v1/stats,
	// /v1/alerts and /v1/timeseries aggregation, so one hung backend
	// cannot hold the fleet document hostage (default 2s). Unreachable
	// backends are reported as partial results (stats_errors,
	// alert_errors).
	StatsTimeout time.Duration
	// TSInterval and TSRetention shape the gateway's own metrics history
	// behind GET /v1/timeseries (defaults 5s and 1h).
	TSInterval  time.Duration
	TSRetention time.Duration
	// AlertRules overrides the gateway's compiled-in ring-level alert
	// rules (ddgate -alert-rules). Nil takes alert.GatewayDefaults over
	// the configured backends. Invalid rule sets fail NewGateway.
	AlertRules []alert.Rule
	// Replicas is the replication factor R (ddgate -replicas): each sealed
	// result is kept on its ring owner plus R−1 successors, copied
	// asynchronously over the backends' /v1/cache endpoints. Values <= 1
	// disable replication.
	Replicas int
	// Tenants, when non-empty, turns on edge admission (ddgate -tenants):
	// every submission must carry a known X-API-Key and is held to its
	// tenant's token bucket before any backend round trip.
	Tenants []tenant.Config
	// Node names this gateway in /v1/stats (default "ddgate").
	Node string
	// Registry receives gateway metrics. Nil builds a private one.
	Registry *obs.Registry
	// Log receives operational logs. Nil discards them.
	Log *slog.Logger
	// HTTPClient is the upstream transport (default http.DefaultClient).
	HTTPClient *http.Client
}

func (c Config) normalized() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Retry.Retries == 0 {
		c.Retry.Retries = 2
	}
	if c.Retry.Backoff <= 0 {
		c.Retry.Backoff = 100 * time.Millisecond
	}
	if c.Retry.Timeout <= 0 {
		c.Retry.Timeout = 2 * time.Minute
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.StatsTimeout <= 0 {
		c.StatsTimeout = 2 * time.Second
	}
	if c.Node == "" {
		c.Node = "ddgate"
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Log == nil {
		c.Log = olog.Discard()
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	return c
}

// Gateway fronts a set of ddserved backends with the same API surface a
// single node exposes, so service.Client and `ddrace -submit` work
// unchanged against either. Submissions route by content hash on the
// consistent-hash ring; job polls route to the owning backend encoded in
// the job ID ("<backend>:<remote id>").
type Gateway struct {
	cfg      Config
	ring     *Ring
	backends []*backend // configured order, for stable stats rows
	byName   map[string]*backend
	client   *http.Client
	reg      *obs.Registry
	log      *slog.Logger
	start    time.Time
	bus      *stream.Bus
	ts       *tsdb.DB
	// traces keeps each job's gateway-side span recorder live: the
	// request's root span ends after the handler returns, and Records()
	// picks it up when the job's trace is read.
	traces  *recent[*obs.SpanRecorder]
	alerts  *alert.Engine
	replica *replica.Replicator // nil when replication is off
	tenants *tenant.Registry    // nil when tenancy is off
	jobKeys *recent[string]     // cache key per job, for read-repair

	// cancel stops the probe loop and the tails that wg waits for; nil
	// until Start.
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// sessionSeq rotates streaming-upload session placement over the ring
	// (see handleTraceOpen).
	sessionSeq atomic.Uint64

	cForwards  *obs.Counter
	cRetries   *obs.Counter
	cHedges    *obs.Counter
	cHedgeWins *obs.Counter
	cErrors    *obs.Counter
	gRing      *obs.Gauge
}

// NewGateway validates cfg and builds a stopped gateway; call Start to
// launch the health-probe loop (or drive ProbeNow manually). All backends
// start admitted and healthy — the first probes correct that within
// FailAfter intervals.
func NewGateway(cfg Config) (*Gateway, error) {
	cfg = cfg.normalized()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one backend")
	}
	g := &Gateway{
		cfg:    cfg,
		ring:   NewRing(cfg.VNodes),
		byName: make(map[string]*backend, len(cfg.Backends)),
		client: cfg.HTTPClient,
		reg:    cfg.Registry,
		log:    cfg.Log,
		start:  time.Now(),
		bus:    stream.NewBus(cfg.Node),
		traces: newRecent[*obs.SpanRecorder](defaultTraceStoreCap),
		ts: tsdb.New(tsdb.Options{
			Registry:  cfg.Registry,
			Node:      cfg.Node,
			Interval:  cfg.TSInterval,
			Retention: cfg.TSRetention,
			Runtime:   true,
		}),
		cForwards:  cfg.Registry.Counter(obs.GateForwards),
		cRetries:   cfg.Registry.Counter(obs.GateRetries),
		cHedges:    cfg.Registry.Counter(obs.GateHedges),
		cHedgeWins: cfg.Registry.Counter(obs.GateHedgeWins),
		cErrors:    cfg.Registry.Counter(obs.GateErrors),
		gRing:      cfg.Registry.Gauge(obs.GateRingMembers),
	}
	for _, b := range cfg.Backends {
		if b.Name == "" || b.URL == "" {
			return nil, fmt.Errorf("cluster: backend needs both name and URL (%+v)", b)
		}
		if err := checkName(b.Name); err != nil {
			return nil, err
		}
		if _, dup := g.byName[b.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend name %q", b.Name)
		}
		nb := &backend{
			Backend:  b,
			health:   HealthOK,
			cForward: cfg.Registry.Counter(obs.GateBackendForwardPrefix + obs.MetricName(b.Name)),
			gHealth:  cfg.Registry.Gauge(obs.GateBackendHealthPrefix + obs.MetricName(b.Name)),
		}
		nb.gHealth.Set(int64(HealthOK))
		g.byName[b.Name] = nb
		g.backends = append(g.backends, nb)
		g.ring.Add(b.Name)
	}
	g.gRing.Set(int64(g.ring.Size()))
	// Replication plans against the live ring and copies bytes through the
	// same HTTP client the forwarders use; tenancy publishes throttle edges
	// onto the same bus the alert console tails. Both are nil-safe no-ops
	// when unconfigured.
	g.jobKeys = newRecent[string](defaultKeyIndexCap)
	g.replica = replica.New(replica.Config{
		Factor:   cfg.Replicas,
		Ring:     g.ring,
		Peer:     g.peerFor,
		Registry: cfg.Registry,
		Bus:      g.bus,
		Log:      cfg.Log,
	})
	g.tenants = tenant.NewRegistry(cfg.Tenants, tenant.Options{
		Prefix:   "ddgate_",
		Capacity: 0, // no gateway queue: token buckets only at the edge
		Registry: cfg.Registry,
		Bus:      g.bus,
	})
	// The gateway's alert engine watches its own registry's history: ring
	// membership, per-backend probe health, partial fleet-stats views.
	rules := cfg.AlertRules
	if rules == nil {
		names := make([]string, 0, len(cfg.Backends))
		for _, b := range cfg.Backends {
			names = append(names, b.Name)
		}
		rules = alert.GatewayDefaults(len(cfg.Backends), names)
	}
	eng, err := alert.New(alert.Config{
		Node:     cfg.Node,
		Rules:    rules,
		Source:   g.ts,
		Bus:      g.bus,
		Registry: cfg.Registry,
		Log:      cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	g.alerts = eng
	g.ts.SetOnTick(eng.EvalNow)
	return g, nil
}

// Ring exposes the gateway's ring (read-only use: tests, stats).
func (g *Gateway) Ring() *Ring { return g.ring }

// Config returns the normalized configuration.
func (g *Gateway) Config() Config { return g.cfg }

// Events returns the gateway's live event bus: its own routing events
// plus every backend event the tailers re-publish (GET /v1/events).
func (g *Gateway) Events() *stream.Bus { return g.bus }

// TimeSeries returns the gateway's own metrics history; the HTTP layer
// merges it with the backends' at GET /v1/timeseries.
func (g *Gateway) TimeSeries() *tsdb.DB { return g.ts }

// Alerts returns the gateway's own alert engine (ring-level rules); the
// HTTP layer merges it with the backends' at GET /v1/alerts.
func (g *Gateway) Alerts() *alert.Engine { return g.alerts }

// Replication returns the gateway's replicator (nil when -replicas <= 1).
func (g *Gateway) Replication() *replica.Replicator { return g.replica }

// Tenants returns the gateway's tenant registry (nil when tenancy is off).
func (g *Gateway) Tenants() *tenant.Registry { return g.tenants }

// Start launches the background loops: the health prober, the time-series
// sampler, and one event tail per backend (each follows the backend's
// /v1/events stream and re-publishes into the gateway bus, making the
// gateway's stream a fleet-wide feed). Idempotent.
func (g *Gateway) Start() {
	if g.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	g.ts.Start()
	g.wg.Add(len(g.backends) + 1)
	for _, b := range g.backends {
		go func() {
			defer g.wg.Done()
			g.tail(ctx, b)
		}()
	}
	go func() {
		defer g.wg.Done()
		g.probeLoop(ctx)
	}()
	if g.replica != nil {
		g.replica.Start()
		go g.seedReplicas()
	}
}

// Stop halts the probe loop, the sampler, and the tails. Idempotent; safe
// if Start was never called.
func (g *Gateway) Stop() {
	if g.cancel != nil {
		g.cancel()
	}
	g.ts.Stop()
	g.replica.Stop()
	g.wg.Wait()
}

// upstream is one fully-read backend response.
type upstream struct {
	status  int
	header  http.Header
	body    []byte
	backend string // who answered
}

// fetch sends one request of the gateway's own (a probe, a fleet fan-out,
// a replica copy) to b and reads at most limit bytes of the answer. A
// non-2xx answer still returns its body and status, with an error naming
// them; a transport failure or an oversized body returns status 0.
func (g *Gateway) fetch(ctx context.Context, b *backend, method, path string, body []byte, limit int64) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.URL+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := readLimited(resp.Body, limit)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: reading %s's answer to %s %s: %w", b.Name, method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return data, resp.StatusCode, fmt.Errorf("cluster: %s answered %d to %s %s", b.Name, resp.StatusCode, method, path)
	}
	return data, resp.StatusCode, nil
}

// retryableStatus reports whether an upstream answer should fail over to
// a different replica. 429 is deliberately absent: it is backpressure
// from the key's owner, and the client — not the gateway — decides
// whether to wait it out (Retry-After is propagated untouched).
func retryableStatus(code int) bool {
	switch code {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// attemptOne sends build's request to one backend and reads the answer.
// The context is canceled as soon as the body is read — or by the caller,
// which is how hedge losers die. The caller's trace context propagates
// downstream as a fresh child span per attempt, and when the context
// carries a recording span (submissions do), each attempt lands in the
// job's waterfall as a "forward" slice on the gateway track.
func (g *Gateway) attemptOne(ctx context.Context, b *backend, build func(base string) (*http.Request, error)) (upstream, error) {
	req, err := build(b.URL)
	if err != nil {
		return upstream{}, err
	}
	if tc, ok := tracectx.From(ctx); ok {
		req.Header.Set(tracectx.Header, tc.Child().String())
	}
	_, span := obs.StartSpan(ctx, "forward")
	span.SetAttr("backend", b.Name)
	g.cForwards.Inc()
	b.cForward.Inc()
	resp, err := g.client.Do(req.WithContext(ctx))
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return upstream{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return upstream{}, fmt.Errorf("cluster: reading %s response: %w", b.Name, err)
	}
	span.SetAttr("status", fmt.Sprint(resp.StatusCode))
	span.End()
	return upstream{status: resp.StatusCode, header: resp.Header, body: body, backend: b.Name}, nil
}

// attemptHedged races one attempt against a hedge: the primary goes out
// immediately, and if HedgeAfter elapses without an answer, the same
// request is duplicated to the hedge backend. First usable response wins;
// the loser's context is canceled. Safe because submissions are
// idempotent — jobs are content-addressed and pure, so the worst case of
// a double send is a duplicate cache entry on a non-owner.
func (g *Gateway) attemptHedged(ctx context.Context, primary, hedge *backend, build func(base string) (*http.Request, error)) (upstream, error) {
	type outcome struct {
		up  upstream
		err error
	}
	launch := func(b *backend, ch chan<- outcome) context.CancelFunc {
		actx, cancel := context.WithTimeout(ctx, g.cfg.Retry.Timeout)
		go func() {
			up, err := g.attemptOne(actx, b, build)
			ch <- outcome{up, err}
		}()
		return cancel
	}

	ch := make(chan outcome, 2) // buffered: losers never block
	cancels := []context.CancelFunc{launch(primary, ch)}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	var hedgeTimer <-chan time.Time
	if hedge != nil && g.cfg.HedgeAfter > 0 {
		hedgeTimer = time.After(g.cfg.HedgeAfter)
	}

	inflight := 1
	var last outcome
	for inflight > 0 {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			g.cHedges.Inc()
			g.log.Info("hedging request", "primary", primary.Name, "hedge", hedge.Name,
				"after_ms", g.cfg.HedgeAfter.Milliseconds())
			cancels = append(cancels, launch(hedge, ch))
			inflight++
		case out := <-ch:
			inflight--
			if out.err == nil && !retryableStatus(out.up.status) {
				if out.up.backend != primary.Name {
					g.cHedgeWins.Inc()
				}
				return out.up, nil
			}
			last = out // keep the failure; a sibling may still win
		case <-ctx.Done():
			return upstream{}, ctx.Err()
		}
	}
	return last.up, last.err
}

// forward tries candidates in ring order with the configured retry
// policy: attempt (possibly hedged), and on transient failure back off
// with jitter and fail over to the next replica.
func (g *Gateway) forward(ctx context.Context, candidates []string, build func(base string) (*http.Request, error)) (upstream, error) {
	if len(candidates) == 0 {
		return upstream{}, fmt.Errorf("cluster: no healthy backends in ring")
	}
	attempts := len(candidates)
	if max := g.cfg.Retry.Retries + 1; attempts > max {
		attempts = max
	}
	var (
		last    upstream
		lastErr error
	)
	for i := 0; i < attempts; i++ {
		if i > 0 {
			g.cRetries.Inc()
			if err := g.cfg.Retry.Sleep(ctx, i-1, 0); err != nil {
				return upstream{}, err
			}
		}
		primary := g.byName[candidates[i]]
		var hedge *backend
		if i+1 < len(candidates) {
			hedge = g.byName[candidates[i+1]]
		}
		last, lastErr = g.attemptHedged(ctx, primary, hedge, build)
		switch {
		case lastErr != nil:
			if ctx.Err() != nil {
				return upstream{}, lastErr
			}
			g.log.Warn("forward attempt failed", "backend", primary.Name, "error", lastErr.Error())
			continue
		case retryableStatus(last.status):
			g.log.Warn("forward attempt rejected", "backend", last.backend, "status", last.status)
			continue
		}
		return last, nil
	}
	if lastErr != nil {
		return upstream{}, lastErr
	}
	return last, nil // propagate the final retryable status as-is
}

// candidates returns the routable backends for a key in preference order.
func (g *Gateway) candidates(key string) []string {
	return g.ring.Lookup(key, len(g.backends))
}

// splitJobID decodes a gateway job ID "<backend>:<remote id>". It cuts at
// the first colon, which is why backend names may not contain one.
func splitJobID(id string) (backendName, remoteID string, ok bool) {
	return strings.Cut(id, ":")
}

// checkName rejects a backend name that cannot prefix a gateway ID.
func checkName(name string) error {
	if strings.Contains(name, ":") {
		return fmt.Errorf("cluster: backend name %q must not contain ':' (gateway ids are backend:id)", name)
	}
	return nil
}

// joinJobID encodes a backend-local job ID into the gateway namespace.
func joinJobID(backendName, remoteID string) string {
	return backendName + ":" + remoteID
}
