package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sort"
	"strings"

	"demandrace/internal/obs"
	"demandrace/internal/obs/alert"
	"demandrace/internal/obs/stream"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/obs/tsdb"
	"demandrace/internal/service"
	"demandrace/internal/tenant"
)

// Handler returns the gateway API: ddserved's route table and middleware
// with the gateway's handlers, so service.Client and `ddrace -submit`
// work unchanged against either tier. Submissions route by content hash
// with failover and hedging; per-job and per-session requests go to the
// backend their "<backend>:<id>" ID names; /v1/stats, /v1/alerts and
// /v1/timeseries merge every backend's document. The fleet-internal
// /v1/cache routes are not mounted.
func (g *Gateway) Handler() http.Handler {
	return service.Mount(service.Instrumentation{
		Registry:      g.reg,
		Log:           g.log,
		Requests:      obs.GateRequests,
		LatencyPrefix: obs.GateHTTPLatencyPrefix,
		SpanPrefix:    "gate:",
	}, map[string]http.HandlerFunc{
		"post_jobs":         g.handleSubmit,
		"post_traces":       g.handleTraceOpen,
		"put_trace_chunk":   g.viaOwner(ackIDs),
		"get_trace_session": g.viaOwner(sessionIDs),
		"post_trace_commit": g.viaOwner(statusIDs),
		"get_job":           g.viaOwner(statusIDs),
		"get_job_trace":     g.handleJobTrace,
		"get_job_partial":   g.viaOwner(partialIDs),
		"get_result":        g.handleResult,
		"get_timeseries":    g.handleTimeseries,
		"get_events":        func(w http.ResponseWriter, r *http.Request) { stream.ServeSSE(w, r, g.bus) },
		"get_alerts": func(w http.ResponseWriter, r *http.Request) {
			service.WriteJSON(w, http.StatusOK, g.FleetAlerts(r.Context()))
		},
		"get_dashboard": func(w http.ResponseWriter, _ *http.Request) { alert.ServeConsole(w, g.cfg.Node) },
		"get_stats": func(w http.ResponseWriter, r *http.Request) {
			service.WriteJSON(w, http.StatusOK, g.Stats(r.Context()))
		},
		"healthz": g.handleHealth,
		"metrics": service.ServeMetrics(g.reg),
	})
}

// handleSubmit routes a submission by content hash. Edge admission comes
// first: the gateway's tenant registry has no queue (Capacity 0), so only
// the per-tenant token buckets apply, and a throttled submission is
// answered before its body is read. The body is buffered (bounded) so
// retries and hedges can replay it, the routing key is the cache key the
// backends will compute, and the winning backend's job ID comes back
// namespaced as "<backend>:<id>".
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Record this request's gateway-side spans (the request envelope plus
	// every forward/hedge attempt) so the job's trace waterfall can show
	// the gateway hop above the backend's stages.
	grec := obs.NewSpanRecorder(g.cfg.Node, 0)
	obs.SpanFrom(r.Context()).RecordInto(grec)

	tn, admitted := service.AdmitTenant(w, r, g.tenants, g.log, nil)
	if !admitted {
		return
	}
	body, ok := g.readBody(w, r, "request body")
	if !ok {
		return
	}
	var key string
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	switch ct {
	case service.TraceContentType, "application/octet-stream":
		key = service.TraceCacheKey(body, service.ParseTraceOptions(r.URL.Query()))
	default:
		var req service.Request
		if derr := json.Unmarshal(body, &req); derr != nil {
			service.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", derr))
			return
		}
		if verr := req.Validate(); verr != nil {
			// Reject at the edge: no reason to burn a backend round trip
			// on a request every backend would 400.
			service.WriteError(w, http.StatusBadRequest, verr.Error())
			return
		}
		key = req.CacheKey()
	}

	up, ok := g.forwardByKey(w, r, key, body)
	if !ok {
		return
	}
	tc, _ := tracectx.From(r.Context())
	g.log.Info("job routed", "key", key[:16], "backend", up.backend, "status", up.status,
		"trace_id", tc.TraceID())
	g.tenants.Account(tn, int64(len(body)), up.status == http.StatusOK)
	var st service.Status
	if json.Unmarshal(up.body, &st) == nil && st.ID != "" {
		gid := joinJobID(up.backend, st.ID)
		g.traces.put(gid, grec)
		// Remember which key this job answers for (read-repair joins on it),
		// and start replication right away for born-done cache hits — queued
		// jobs are tracked when their job_done event is tailed.
		g.jobKeys.put(gid, key)
		if st.State == service.StateDone {
			g.replica.Track(key, up.backend)
		}
	}
	relay(w, up, statusIDs)
}

// readBody buffers a request body of at most MaxBodyBytes; ok=false means
// the 400 or 413 answer has been written.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	body, err := readLimited(r.Body, g.cfg.MaxBodyBytes)
	if err == errTooLarge {
		service.WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("cluster: %s exceeds %d bytes", what, g.cfg.MaxBodyBytes))
		return nil, false
	}
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, fmt.Sprintf("reading %s: %v", what, err))
		return nil, false
	}
	return body, true
}

// errTooLarge reports a body past its bound.
var errTooLarge = errors.New("cluster: body too large")

// readLimited reads at most max bytes of r, failing with errTooLarge when
// there are more.
func readLimited(r io.Reader, max int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err == nil && int64(len(data)) > max {
		return nil, errTooLarge
	}
	return data, err
}

// forwardByKey sends r with body to key's ring candidates, failing over
// under the retry policy; ok=false means the 503 (empty ring) or 502
// answer has been written.
func (g *Gateway) forwardByKey(w http.ResponseWriter, r *http.Request, key string, body []byte) (upstream, bool) {
	candidates := g.candidates(key)
	if len(candidates) == 0 {
		g.cErrors.Inc()
		w.Header().Set("Retry-After", "1")
		service.WriteError(w, http.StatusServiceUnavailable, "cluster: no healthy backends")
		return upstream{}, false
	}
	up, err := g.forward(r.Context(), candidates, func(base string) (*http.Request, error) {
		return outbound(r, base+r.URL.Path, body)
	})
	if err != nil {
		g.log.Error("request failed on every candidate", "key", key, "error", err.Error())
		g.badGateway(w, "cluster: all backends failed: %v", err)
		return upstream{}, false
	}
	return up, true
}

// outbound builds the upstream copy of r for url: same method, query and
// body, plus the request headers backends read.
func outbound(r *http.Request, url string, body []byte) (*http.Request, error) {
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequest(r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", tenant.HeaderAPIKey, service.ChunkCRCHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return req, nil
}

// owner resolves the backend named by the prefix of the request's
// namespaced {id} — a job ID "backend:j-n" or a session ID "backend:s-n" —
// answering 404 itself when the prefix names none.
func (g *Gateway) owner(w http.ResponseWriter, r *http.Request) (*backend, string, bool) {
	id := r.PathValue("id")
	name, remoteID, ok := splitJobID(id)
	b := g.byName[name]
	if !ok || b == nil {
		service.WriteError(w, http.StatusNotFound,
			fmt.Sprintf("cluster: no such job or session %q (gateway ids look like backend:j-n or backend:s-n)", id))
		return nil, "", false
	}
	return b, remoteID, true
}

// askOwner sends r to b alone, with the namespaced ID in its path swapped
// for the backend's own. No failover: job and session state is
// node-local, so any other backend could only answer 404.
func (g *Gateway) askOwner(r *http.Request, b *backend, remoteID string, body []byte) (upstream, error) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Retry.Timeout)
	defer cancel()
	// The ID is the first path segment holding a colon; route segments
	// before it hold none.
	path := strings.Replace(r.URL.Path, r.PathValue("id"), remoteID, 1)
	return g.attemptOne(ctx, b, func(base string) (*http.Request, error) {
		return outbound(r, base+path, body)
	})
}

// badGateway answers 502 for a request no backend could serve, counting
// it in ddgate_errors_total.
func (g *Gateway) badGateway(w http.ResponseWriter, format string, args ...any) {
	g.cErrors.Inc()
	service.WriteError(w, http.StatusBadGateway, fmt.Sprintf(format, args...))
}

// viaOwner returns the handler of a per-job or per-session route: forward
// to the owner and relay its answer with IDs re-namespaced by rewrite.
func (g *Gateway) viaOwner(rewrite rewriteFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, remoteID, ok := g.owner(w, r)
		if !ok {
			return
		}
		var body []byte
		if r.Method != http.MethodGet {
			if body, ok = g.readBody(w, r, "chunk"); !ok {
				return
			}
		}
		up, err := g.askOwner(r, b, remoteID, body)
		if err != nil {
			g.badGateway(w, "cluster: backend %s unreachable: %v", b.Name, err)
			return
		}
		relay(w, up, rewrite)
	}
}

// rewriteFunc re-namespaces the backend-local IDs of a response document;
// ok=false relays the body untouched.
type rewriteFunc func(body []byte, backendName string) ([]byte, bool)

// idRewriter decodes a T, prefixes every non-empty ID that ids points at
// with "<backend>:", and re-encodes it. A body that is not a T, or whose
// first ID is empty (an error document), passes through.
func idRewriter[T any](ids func(*T) []*string) rewriteFunc {
	return func(body []byte, backendName string) ([]byte, bool) {
		var doc T
		if json.Unmarshal(body, &doc) != nil {
			return nil, false
		}
		fields := ids(&doc)
		if *fields[0] == "" {
			return nil, false
		}
		for _, f := range fields {
			if *f != "" {
				*f = joinJobID(backendName, *f)
			}
		}
		out, err := json.Marshal(doc)
		if err != nil {
			return nil, false
		}
		return append(out, '\n'), true
	}
}

// The documents whose IDs the gateway re-namespaces.
var (
	statusIDs  = idRewriter(func(d *service.Status) []*string { return []*string{&d.ID} })
	sessionIDs = idRewriter(func(d *service.TraceSession) []*string { return []*string{&d.Session, &d.Job} })
	ackIDs     = idRewriter(func(d *service.ChunkAck) []*string { return []*string{&d.Session} })
	partialIDs = idRewriter(func(d *service.PartialReport) []*string { return []*string{&d.Session, &d.Job} })
)

// relay writes an upstream answer to the client with the headers worth
// keeping. rewrite, when set, re-namespaces IDs; a nil rewrite passes the
// body through byte for byte.
func relay(w http.ResponseWriter, up upstream, rewrite rewriteFunc) {
	for _, h := range []string{"Content-Type", "Retry-After", tenant.HeaderTenant} {
		if v := up.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	body := up.body
	if rewrite != nil {
		if rewritten, ok := rewrite(body, up.backend); ok {
			body = rewritten
		}
	}
	w.WriteHeader(up.status)
	w.Write(body)
}

// handleResult forwards a result fetch to the owning backend. The 200
// body is relayed byte-for-byte: result bytes through the gateway are
// identical to result bytes fetched directly. When the owner is
// unreachable (or restarted without the result), the fetch falls through
// to the key's replica chain: read-repair serves the identical sealed
// bytes from a successor and queues the owner for back-fill.
func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	b, remoteID, ok := g.owner(w, r)
	if !ok {
		return
	}
	up, err := g.askOwner(r, b, remoteID, nil)
	if err == nil && up.status != http.StatusNotFound {
		relay(w, up, nil)
		return
	}
	if g.serveRepaired(w, r, r.PathValue("id"), b.Name) {
		return
	}
	if err != nil {
		g.badGateway(w, "cluster: backend %s unreachable: %v", b.Name, err)
		return
	}
	relay(w, up, nil)
}

// handleHealth reports ring capacity. The gateway stays 200 while at
// least one backend is routable — shedding the whole cluster because one
// replica died would turn a partial failure into a total one; only an
// empty ring answers 503.
func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	perBackend := make(map[string]string, len(g.backends))
	ok, degraded := 0, 0
	for _, b := range g.backends {
		h := b.Health()
		perBackend[b.Name] = h.String()
		switch h {
		case HealthOK:
			ok++
		case HealthDegraded:
			degraded++
		}
	}
	status := service.HealthOK
	code := http.StatusOK
	rs := g.replica.StatsSnapshot()
	switch {
	case ok+degraded == 0:
		status = "down"
		code = http.StatusServiceUnavailable
	case ok < len(g.backends):
		status = service.HealthDegraded
	case rs.Degraded:
		// Handoff missed its deadline: every backend answers, but some
		// sealed results are still below their replication factor.
		status = service.HealthDegraded
	}
	body := map[string]any{
		"status":    status,
		"ring_size": g.ring.Size(),
		"backends":  perBackend,
	}
	if rs.Factor > 1 {
		body["replication"] = map[string]any{
			"factor":           rs.Factor,
			"tracked":          rs.Tracked,
			"under_replicated": rs.UnderReplicated,
			"queue":            rs.Queue,
			"degraded":         rs.Degraded,
		}
	}
	service.WriteJSON(w, code, body)
}

// handleJobTrace merges two waterfalls onto one timeline: the gateway's
// recorded forwarding spans for the job (if still retained) and the
// owning backend's stage spans, fetched live. Both documents carry their
// absolute base time, so re-encoding the concatenated records lines the
// gateway hop up above the backend stages exactly as they happened.
func (g *Gateway) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	b, remoteID, ok := g.owner(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	up, err := g.askOwner(r, b, remoteID, nil)

	extra := map[string]string{"job_id": id, "node": g.cfg.Node}
	var backendRecs []obs.SpanRecord
	if err == nil && up.status == http.StatusOK {
		recs, other, derr := obs.DecodeSpanTrace(up.body)
		if derr != nil {
			g.badGateway(w, "cluster: backend %s returned an unreadable trace: %v", b.Name, derr)
			return
		}
		backendRecs = recs
		for _, k := range []string{"trace_id", "state"} {
			if v := other[k]; v != "" {
				extra[k] = v
			}
		}
	}
	rec, _ := g.traces.get(id)
	gwRecs := rec.Records()
	if len(backendRecs) == 0 && len(gwRecs) == 0 {
		// Nothing to merge: pass the backend's answer (or failure) through.
		if err != nil {
			g.badGateway(w, "cluster: backend %s unreachable: %v", b.Name, err)
			return
		}
		relay(w, up, nil)
		return
	}
	data, eerr := obs.EncodeSpanTrace("job "+id, append(gwRecs, backendRecs...), extra)
	if eerr != nil {
		service.WriteError(w, http.StatusInternalServerError, eerr.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleTimeseries serves the fleet view: the gateway's own sampled
// history plus every reachable backend's, fetched by one fan-out. Per-series
// Node fields keep the merged document attributable; an unreachable
// backend just contributes nothing.
func (g *Gateway) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	since, err := tsdb.ParseSince(r.URL.Query().Get("since"))
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	doc := g.ts.Doc(r.URL.Query().Get("metric"), since)
	docs, _ := fanOut[tsdb.Doc](r.Context(), g, r.URL.RequestURI())
	for _, d := range docs {
		doc.Series = append(doc.Series, d.Series...)
	}
	sort.Slice(doc.Series, func(i, j int) bool {
		if doc.Series[i].Node != doc.Series[j].Node {
			return doc.Series[i].Node < doc.Series[j].Node
		}
		return doc.Series[i].Metric < doc.Series[j].Metric
	})
	service.WriteJSON(w, http.StatusOK, doc)
}
