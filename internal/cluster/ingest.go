package cluster

// Streaming-ingest routing: the gateway face of internal/ingest's
// resumable upload sessions. A session is stateful and node-local —
// detector shadow state, the incremental decoder, and the chunk ledger all
// live on one backend — so the routing rule is the session-ID namespace:
// POST /v1/traces picks a backend (rotating over the ring so concurrent
// uploads spread) and returns its session ID namespaced "<backend>:<id>";
// every later chunk, status, commit, and partial call splits that prefix
// and goes to the owner with no failover. Retry-After and the typed
// 409/413 protocol errors relay untouched, so a client streaming through
// ddgate sees exactly the single-node protocol.

import (
	"fmt"
	"net/http"

	"demandrace/internal/service"
)

// handleTraceOpen opens a session on a ring-chosen backend. The rotation
// key spreads concurrent uploads; failover is safe here because no state
// exists until some backend answers 201. A session spends one edge
// admission token up front, same as a batch POST; chunks then stream
// inside the already-admitted session.
func (g *Gateway) handleTraceOpen(w http.ResponseWriter, r *http.Request) {
	if _, ok := service.AdmitTenant(w, r, g.tenants, g.log, nil); !ok {
		return
	}
	key := fmt.Sprintf("ingest-session-%d", g.sessionSeq.Add(1))
	up, ok := g.forwardByKey(w, r, key, nil)
	if !ok {
		return
	}
	g.log.Info("ingest session routed", "backend", up.backend, "status", up.status)
	relay(w, up, sessionIDs)
}
