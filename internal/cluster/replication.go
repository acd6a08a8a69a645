package cluster

// Gateway-side replication: the cluster tier's face of internal/replica.
// The gateway is the only process that sees both the ring and every
// backend, so it runs the replicator: it learns keys from the submissions
// it routes (and the job_done events it tails), copies sealed results
// across each key's replica chain over the backends' /v1/cache endpoints,
// and serves read-repair when a result's owner cannot answer.

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"demandrace/internal/replica"
)

// defaultKeyIndexCap bounds the job-ID → cache-key index backing
// read-repair (Gateway.jobKeys): a result poll carries only the job ID,
// and read-repair needs the key. Replication itself converges through
// Track/Resync regardless of this index.
const defaultKeyIndexCap = 4096

// seedTimeout bounds the startup shard import from each backend.
const seedTimeout = 30 * time.Second

// peerFor resolves a ring member name to its replication surface.
func (g *Gateway) peerFor(name string) replica.Peer {
	b := g.byName[name]
	if b == nil {
		return nil
	}
	return &httpPeer{g: g, b: b}
}

// httpPeer implements replica.Peer over a backend's key-addressed result
// endpoints.
type httpPeer struct {
	g *Gateway
	b *backend
}

func (p *httpPeer) Get(ctx context.Context, key string) ([]byte, error) {
	data, _, err := p.g.fetch(ctx, p.b, http.MethodGet, "/v1/cache/"+key, nil, p.g.cfg.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	return data, nil
}

func (p *httpPeer) Put(ctx context.Context, key string, data []byte) error {
	_, _, err := p.g.fetch(ctx, p.b, http.MethodPut, "/v1/cache/"+key, data, 1<<16)
	return err
}

func (p *httpPeer) Keys(ctx context.Context) ([]string, error) {
	data, _, err := p.g.fetch(ctx, p.b, http.MethodGet, "/v1/cache", nil, p.g.cfg.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Keys []string `json:"keys"`
	}
	err = json.Unmarshal(data, &doc)
	return doc.Keys, err
}

// seedReplicas imports every backend's existing shard into tracking at
// startup, so results that predate this gateway process (ddserved
// -store-dir survivors) reach their replication factor too.
func (g *Gateway) seedReplicas() {
	ctx, cancel := context.WithTimeout(context.Background(), seedTimeout)
	defer cancel()
	for _, b := range g.backends {
		if err := g.replica.Seed(ctx, b.Name); err != nil {
			g.log.Debug("replica seed failed", "backend", b.Name, "error", err.Error())
		}
	}
}

// serveRepaired answers a result fetch from the replica chain after the
// owner failed: it maps the gateway job ID back to its cache key, pulls
// the sealed bytes off any holder except the failed owner, and back-fills
// the chain. Returns false when the key is unknown or no replica held the
// bytes (the caller falls back to its error path). Replicated results are
// sealed result documents, so the bytes served here are identical to what
// the owner would have answered.
func (g *Gateway) serveRepaired(w http.ResponseWriter, r *http.Request, gatewayJobID, owner string) bool {
	key, ok := g.jobKeys.get(gatewayJobID)
	if !ok {
		return false
	}
	data, source, ok := g.replica.Repair(r.Context(), key, owner)
	if !ok {
		return false
	}
	g.log.Info("result served from replica", "job_id", gatewayJobID,
		"owner", owner, "source", source)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	return true
}
