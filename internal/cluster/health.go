package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
)

// Health is a backend's observed state.
type Health int

const (
	// HealthDown: the backend failed FailAfter consecutive probes (or has
	// not yet passed one after starting down) and is evicted from the ring.
	HealthDown Health = iota
	// HealthDegraded: the backend answers /healthz 503-with-body (queue
	// past its high-water mark, or draining). It stays routable — it is
	// still completing jobs — but operators see the pressure.
	HealthDegraded
	// HealthOK: the backend answers /healthz 200.
	HealthOK
)

// String renders the state the way /v1/stats and logs spell it.
func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	default:
		return "down"
	}
}

// Backend names one ddserved node.
type Backend struct {
	// Name is the ring identity. Stable names matter: ring placement is a
	// pure function of the name, so renaming a backend remaps its share of
	// the keyspace.
	Name string
	// URL is the node's base URL, without a trailing slash.
	URL string
}

// ParseBackends parses a comma-separated backend spec: each element is
// either "url" or "name=url". An omitted name derives from the URL's
// host:port with ':' replaced by '-' (e.g. "127.0.0.1-8318"), which is
// stable under reordering of the spec — listing the same set in any order
// yields the same ring.
func ParseBackends(spec string) ([]Backend, error) {
	var out []Backend
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var b Backend
		if name, rest, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			b = Backend{Name: name, URL: rest}
		} else {
			b = Backend{URL: part}
		}
		b.URL = strings.TrimRight(b.URL, "/")
		u, err := url.Parse(b.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %q: want http://host:port", part)
		}
		if b.Name == "" {
			b.Name = strings.ReplaceAll(u.Host, ":", "-")
		}
		if err := checkName(b.Name); err != nil {
			return nil, err
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("cluster: duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no backends in spec %q", spec)
	}
	return out, nil
}

// backend is the gateway's per-node state: configuration plus the health
// machine the prober drives.
type backend struct {
	Backend

	mu     sync.Mutex
	health Health
	fails  int // consecutive probe failures

	cForward *obs.Counter
	gHealth  *obs.Gauge
}

// setHealth records a state and mirrors it into the gauge.
func (b *backend) setHealth(h Health) {
	b.mu.Lock()
	b.health = h
	b.mu.Unlock()
	b.gHealth.Set(int64(h))
}

// Health returns the backend's current state.
func (b *backend) Health() Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.health
}

// probe checks one backend's /healthz once and classifies the answer.
func (g *Gateway) probe(ctx context.Context, b *backend) (Health, error) {
	pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	data, code, err := g.fetch(pctx, b, http.MethodGet, "/healthz", nil, 1<<16)
	if code == 0 {
		return HealthDown, err
	}
	var body struct {
		Status string `json:"status"`
	}
	json.Unmarshal(data, &body)
	switch {
	case err == nil:
		return HealthOK, nil
	case body.Status == "degraded" || body.Status == "draining":
		// Degraded-aware: the node is shedding load but still serving
		// admitted work; keep routing to it rather than stampeding the
		// healthy remainder.
		return HealthDegraded, nil
	default:
		return HealthDown, err
	}
}

// ProbeNow probes every backend once, applying ring evictions and
// readmissions. The probe loop calls this on a ticker; tests and startup
// call it directly.
func (g *Gateway) ProbeNow(ctx context.Context) {
	for _, b := range g.backends {
		h, err := g.probe(ctx, b)
		if ctx.Err() != nil {
			return // shutting down: a canceled probe says nothing about b
		}
		b.mu.Lock()
		prev := b.health
		if h == HealthDown {
			b.fails++
		} else {
			b.fails = 0
			b.health = h
		}
		evict := b.fails >= g.cfg.FailAfter
		if evict {
			b.health = HealthDown
		}
		now := b.health
		fails := b.fails
		b.mu.Unlock()
		b.gHealth.Set(int64(now))

		switch {
		case evict && prev != HealthDown:
			g.ring.Evict(b.Name)
			g.replica.OnEvict(b.Name)
			g.log.Warn("backend evicted from ring", "backend", b.Name, "url", b.URL,
				"consecutive_failures", fails, "error", errString(err))
			g.publishRingChange(b, "evicted", now)
		case !evict && h != HealthDown && prev == HealthDown:
			g.ring.Readmit(b.Name)
			g.replica.OnReadmit(b.Name)
			g.log.Info("backend readmitted to ring", "backend", b.Name, "url", b.URL,
				"health", now.String())
			g.publishRingChange(b, "readmitted", now)
		case h == HealthDegraded && prev == HealthOK:
			g.log.Warn("backend degraded", "backend", b.Name, "url", b.URL)
			g.publishRingChange(b, "degraded", now)
		}
	}
	g.gRing.Set(int64(g.ring.Size()))
}

// publishRingChange emits one membership transition onto the event bus.
func (g *Gateway) publishRingChange(b *backend, change string, h Health) {
	g.bus.Publish(stream.Event{
		Type: stream.TypeRingChange,
		Detail: map[string]string{
			"backend": b.Name,
			"change":  change,
			"health":  h.String(),
		},
	})
}

// probeLoop drives ProbeNow on the configured interval until ctx ends.
func (g *Gateway) probeLoop(ctx context.Context) {
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.ProbeNow(ctx)
		case <-ctx.Done():
			return
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
