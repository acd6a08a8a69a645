package cluster

import (
	"context"
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

// tailRefusedWait paces a tail whose backend refused its /v1/events
// request outright (stream.Follow returns on a non-200 answer).
const tailRefusedWait = 5 * time.Second

// tail follows one backend's GET /v1/events stream until ctx ends,
// re-publishing every event into the gateway bus so a single subscription
// at the gateway sees the whole fleet. stream.Follow carries it across
// dropped connections and backend restarts without losing or repeating an
// event; an unreachable backend costs a retry loop, never a crash. Job IDs
// are rewritten into the gateway namespace so anything a watcher sees can
// be fetched back through the gateway.
func (g *Gateway) tail(ctx context.Context, b *backend) {
	for {
		err := stream.Follow(ctx, g.client, b.URL+"/v1/events", func(ev stream.Event) error {
			g.republish(b, ev)
			return nil
		})
		if ctx.Err() != nil {
			return
		}
		g.log.Debug("event tail refused", "backend", b.Name, "error", err.Error())
		select {
		case <-ctx.Done():
			return
		case <-time.After(tailRefusedWait):
		}
	}
}

// republish forwards one tailed backend event into the gateway bus. A done
// job_done carries its result's cache key: the gateway indexes the job by
// it for read-repair and enrolls it for replication, whether the job was
// queued through the gateway or committed by a streamed upload.
func (g *Gateway) republish(b *backend, ev stream.Event) {
	if ev.Type == stream.TypeHello {
		return // connection artifact of our own subscription, not fleet news
	}
	if ev.Job != "" {
		ev.Job = joinJobID(b.Name, ev.Job)
	}
	if key := ev.Detail["key"]; ev.Type == stream.TypeJobDone && key != "" {
		g.jobKeys.put(ev.Job, key)
		g.replica.Track(key, b.Name)
	}
	g.bus.Publish(ev)
}
