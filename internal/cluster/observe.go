package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"demandrace/internal/obs/stream"
)

// defaultTraceStoreCap bounds how many recent submissions keep their
// gateway-side forwarding spans for GET /v1/jobs/{id}/trace merging.
const defaultTraceStoreCap = 256

// recent is a FIFO-capped map keyed by gateway job ID ("backend:j-n"):
// past cap entries the oldest goes. Recency is the right retention policy
// for what the gateway remembers per job — traces and results are fetched
// shortly after submission.
type recent[V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[string]V
	order []string // insertion order, oldest first
}

func newRecent[V any](capacity int) *recent[V] {
	return &recent[V]{cap: capacity, m: make(map[string]V)}
}

// put stores v under id, evicting the oldest entry past cap.
func (r *recent[V]) put(id string, v V) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[id]; !ok {
		r.order = append(r.order, id)
	}
	r.m[id] = v
	for len(r.order) > r.cap {
		delete(r.m, r.order[0])
		r.order = r.order[1:]
	}
}

func (r *recent[V]) get(id string) (V, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[id]
	return v, ok
}

// tailLoop follows one backend's GET /v1/events stream for the gateway's
// lifetime, re-publishing every event into the gateway bus so a single
// subscription at the gateway sees the whole fleet. Connection failures
// back off and reconnect — an unreachable backend costs a retry loop,
// never a crash — and job IDs are rewritten into the gateway namespace so
// anything a watcher sees can be fetched back through the gateway.
func (g *Gateway) tailLoop(b *backend) {
	defer g.tailWG.Done()
	backoff := 500 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		err := g.tailOnce(b)
		select {
		case <-g.stop:
			return
		case <-time.After(backoff):
		}
		if err != nil {
			g.log.Debug("event tail reconnecting", "backend", b.Name, "error", err.Error())
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// tailOnce holds one streaming connection to a backend's /v1/events until
// it breaks or the gateway stops.
func (g *Gateway) tailOnce(b *backend) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-g.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/v1/events", nil)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s answered %d to /v1/events", b.Name, resp.StatusCode)
	}
	dec := stream.NewDecoder(resp.Body)
	for {
		ev, err := dec.Next()
		if err != nil {
			return err
		}
		if ev.Type == stream.TypeHello {
			// Connection artifact of our own subscription, not fleet news.
			continue
		}
		if ev.Job != "" {
			ev.Job = joinJobID(b.Name, ev.Job)
		}
		if ev.Type == stream.TypeJobDone && ev.Detail["state"] == "done" {
			// A sealed result just landed on this backend: enroll its key
			// for replication. Submissions the gateway routed are already
			// tracked; this catches jobs that finished asynchronously.
			if key, ok := g.jobKeys.get(ev.Job); ok {
				g.replica.Track(key, b.Name)
			}
		}
		g.bus.Publish(ev)
	}
}
