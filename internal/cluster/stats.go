package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/replica"
	"demandrace/internal/service"
	"demandrace/internal/tenant"
)

// RingStats describes the routing layer.
type RingStats struct {
	Members int      `json:"members"` // configured
	Active  []string `json:"active"`  // currently routable, sorted
	VNodes  int      `json:"vnodes"`  // per member
}

// GatewayCounters is the forwarding ledger.
type GatewayCounters struct {
	Requests  uint64 `json:"requests"`
	Forwards  uint64 `json:"forwards"`
	Retries   uint64 `json:"retries"`
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	Errors    uint64 `json:"errors"`
}

// BackendStats is one backend's row in the gateway stats document: the
// gateway's view of it (health, forwards) plus the backend's own /v1/stats
// snapshot when it was reachable (nil otherwise). The nested summary keeps
// its own node field, so aggregated numbers stay attributable.
type BackendStats struct {
	Name      string                `json:"name"`
	URL       string                `json:"url"`
	Health    string                `json:"health"`
	Forwarded uint64                `json:"forwarded"`
	Stats     *service.StatsSummary `json:"stats,omitempty"`
}

// ClusterStats is ddgate's GET /v1/stats document. Jobs sums the job
// lifecycle counters across every reachable backend — a cluster total —
// while Backends keeps the per-node breakdown. StatsErrors counts the
// backends whose /v1/stats fetch failed or timed out this aggregation:
// non-zero means the document is a partial view, not a fleet total.
type ClusterStats struct {
	Node          string           `json:"node"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Ring          RingStats        `json:"ring"`
	Gateway       GatewayCounters  `json:"gateway"`
	Jobs          service.JobStats `json:"jobs"`
	StatsErrors   int              `json:"stats_errors"`
	Replication   *replica.Stats   `json:"replication,omitempty"`
	Tenants       []tenant.Stats   `json:"tenants,omitempty"`
	Backends      []BackendStats   `json:"backends"`
}

// Stats assembles the aggregated operational snapshot: gateway-local
// counters plus a fan-out to every backend's /v1/stats.
func (g *Gateway) Stats(ctx context.Context) ClusterStats {
	cs := ClusterStats{
		Node:          g.cfg.Node,
		UptimeSeconds: time.Since(g.start).Seconds(),
		Ring: RingStats{
			Members: len(g.backends),
			Active:  g.ring.Active(),
			VNodes:  g.cfg.VNodes,
		},
		Gateway: GatewayCounters{
			Requests:  g.reg.CounterValue(obs.GateRequests),
			Forwards:  g.reg.CounterValue(obs.GateForwards),
			Retries:   g.reg.CounterValue(obs.GateRetries),
			Hedges:    g.reg.CounterValue(obs.GateHedges),
			HedgeWins: g.reg.CounterValue(obs.GateHedgeWins),
			Errors:    g.reg.CounterValue(obs.GateErrors),
		},
		Backends: make([]BackendStats, len(g.backends)),
	}
	if rs := g.replica.StatsSnapshot(); rs.Factor > 1 {
		cs.Replication = &rs
	}
	cs.Tenants = g.tenants.StatsSnapshot()

	docs, errs := fanOut[service.StatsSummary](ctx, g, "/v1/stats")
	for i, b := range g.backends {
		cs.Backends[i] = BackendStats{
			Name:      b.Name,
			URL:       b.URL,
			Health:    b.Health().String(),
			Forwarded: b.cForward.Value(),
		}
		if errs[i] != nil {
			cs.StatsErrors++
			continue
		}
		bs := &docs[i]
		cs.Backends[i].Stats = bs
		cs.Jobs.Submitted += bs.Jobs.Submitted
		cs.Jobs.Completed += bs.Jobs.Completed
		cs.Jobs.Failed += bs.Jobs.Failed
		cs.Jobs.Canceled += bs.Jobs.Canceled
		cs.Jobs.Rejected += bs.Jobs.Rejected
		cs.Jobs.Inflight += bs.Jobs.Inflight
	}
	// Record the partial-view count as a gauge so the fleet-stats-partial
	// alert rule (and the tsdb) can see it; it reflects the most recent
	// fan-out, refreshed on every stats poll.
	g.reg.Gauge(obs.GateStatsErrors).Set(int64(cs.StatsErrors))
	return cs
}

// maxFanOutBodyBytes bounds each backend's document in a fleet fan-out;
// 8 MiB is orders of magnitude above a full time-series retention window,
// the largest of the merged documents.
const maxFanOutBodyBytes = 8 << 20

// fanOut GETs the JSON document at path (path and query) from every
// backend concurrently, each fetch bounded by Config.StatsTimeout so one
// hung backend costs its own row, never the whole document. docs and errs
// are in configured backend order; where errs[i] is set, docs[i] is the
// zero T.
func fanOut[T any](ctx context.Context, g *Gateway, path string) (docs []T, errs []error) {
	docs = make([]T, len(g.backends))
	errs = make([]error, len(g.backends))
	fetch := func(b *backend, doc *T) error {
		ctx, cancel := context.WithTimeout(ctx, g.cfg.StatsTimeout)
		defer cancel()
		data, _, err := g.fetch(ctx, b, http.MethodGet, path, nil, maxFanOutBodyBytes)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, doc)
	}
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			var doc T
			if errs[i] = fetch(b, &doc); errs[i] != nil {
				g.log.Debug("backend fetch failed", "backend", b.Name, "path", path, "error", errs[i].Error())
				return
			}
			docs[i] = doc
		}(i, b)
	}
	wg.Wait()
	return docs, errs
}
