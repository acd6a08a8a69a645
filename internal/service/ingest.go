package service

// Streaming-ingest HTTP surface: the service-layer face of
// internal/ingest. A client opens a session, PUTs CRC-checked chunks,
// polls partial race reports while the upload is in flight, and commits.
// The sealed commit registers a born-done job whose result document is
// byte-identical to the batch POST /v1/jobs upload of the same bytes —
// both paths share detectorOptions, replayResultFrom, and (via the
// pre-seeded session hasher) the same cache key.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"demandrace/internal/ingest"
	"demandrace/internal/obs/stream"
	"demandrace/internal/obs/tracectx"
	"demandrace/internal/runner"
	"demandrace/internal/trace"
)

// ChunkCRCHeader carries a chunk's CRC-32C (decimal) on PUT; the server
// verifies the payload against it before applying anything.
const ChunkCRCHeader = "X-Chunk-Crc32c"

// ParseTraceOptions reads the replay options both upload paths accept as
// query parameters (?fullvc=1&max_reports=N&timeout_ms=D). ddgate routes
// a trace upload by the TraceCacheKey of what this returns, so its
// routing key and the backend's cache key come from one parser.
func ParseTraceOptions(q url.Values) TraceOptions {
	opts := TraceOptions{FullVC: q.Get("fullvc") == "1" || q.Get("fullvc") == "true"}
	if v := q.Get("max_reports"); v != "" {
		opts.MaxReports, _ = strconv.Atoi(v)
	}
	if v := q.Get("timeout_ms"); v != "" {
		opts.TimeoutMS, _ = strconv.ParseInt(v, 10, 64)
	}
	return opts
}

// handleTraceOpen opens a streaming upload session (POST /v1/traces).
// Draining stops new sessions the way it stops new submissions, but
// already-open sessions may finish their chunks and commit.
func (s *Server) handleTraceOpen(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	// A session is a submission in installments: it spends one admission
	// token up front, the same as a batch POST /v1/jobs.
	if _, ok := AdmitTenant(w, r, s.tenants, s.log, s.cReject); !ok {
		return
	}
	opts := ParseTraceOptions(r.URL.Query())
	st, err := s.ing.Open(ingest.OpenOptions{
		Detector: detectorOptions(opts),
		Hash:     traceKeyHasher(opts),
	})
	if err != nil {
		writeIngestError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, st)
}

// handleTraceChunk applies one chunk (PUT /v1/traces/{id}/chunks/{seq}).
func (s *Server) handleTraceChunk(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "malformed chunk sequence number")
		return
	}
	var declared *uint32
	if v := r.Header.Get(ChunkCRCHeader); v != "" {
		u, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "malformed "+ChunkCRCHeader+" header")
			return
		}
		crc := uint32(u)
		declared = &crc
	}
	data, err := readAllLimited(r.Body, s.ing.Config().MaxChunkBytes)
	if err != nil {
		writeIngestError(w, err)
		return
	}
	ack, err := s.ing.Append(r.PathValue("id"), seq, data, declared)
	if err != nil {
		writeIngestError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ack)
}

// handleTraceSession reports a session snapshot (GET /v1/traces/{id}) —
// the client's resume handle after a dropped connection: high_water names
// the next chunk the server expects.
func (s *Server) handleTraceSession(w http.ResponseWriter, r *http.Request) {
	st, err := s.ing.Status(r.PathValue("id"))
	if err != nil {
		writeIngestError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// handleTraceCommit seals a session (POST /v1/traces/{id}/commit) and
// registers the finished analysis as a born-done job. Replayed commits
// answer with the already-registered job.
func (s *Server) handleTraceCommit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	com, err := s.ing.Commit(id)
	if err != nil {
		writeIngestError(w, err)
		return
	}
	if com.JobID != "" {
		st, err := s.Status(com.JobID)
		if err != nil {
			WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, st)
		return
	}
	st, err := s.completeStreamed(r.Context(), id, com)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// handlePartial serves the races found so far (GET /v1/jobs/{id}/partial).
// The id may be a session ID (mid-stream) or a committed session's job ID.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	p, err := s.ing.Partial(r.PathValue("id"))
	if err != nil {
		writeIngestError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, p)
}

// completeStreamed turns a sealed ingest commit into a done job: the
// analysis already ran chunk-by-chunk, so the job is born terminal — no
// queue, no worker. The result document and cache entry are exactly what
// the batch path would have produced for the same bytes.
func (s *Server) completeStreamed(ctx context.Context, sessionID string, com *ingest.Commit) (Status, error) {
	res := replayResultFrom(com.Summary, com.Detector)
	runner.PublishDetectorStats(s.reg, com.Detector.Stats())
	data, err := json.Marshal(res)
	if err != nil {
		return Status{}, err
	}
	j := &Job{
		kind:   "trace",
		name:   com.Summary.Program,
		key:    com.Key,
		state:  StateDone,
		result: data,
		done:   make(chan struct{}),
		rec:    com.Rec,
	}
	if tc, ok := tracectx.From(ctx); ok {
		j.trace = tc.TraceID()
	}
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("j-%d", s.seq)
	close(j.done)
	s.jobs[j.id] = j
	s.cache.put(j.key, data)
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.cSubmit.Inc()
	s.cComplete.Inc()
	s.log.Info("job done", j.logAttrs("state", string(StateDone), "streamed", true, "session", sessionID)...)
	s.bus.Publish(stream.Event{
		Type: stream.TypeJobDone, Job: j.id, Trace: j.trace,
		Detail: map[string]string{
			"kind": j.kind, "name": j.name, "state": string(StateDone), "streamed": "true", "key": j.key,
		},
	})
	// Bind the job to the session last: from here on, replayed commits and
	// partial-by-job lookups resolve to it.
	s.ing.SetJob(sessionID, j.id)
	return st, nil
}

// writeIngestError maps the ingest error taxonomy onto status codes: 404
// unknown session, 429 + Retry-After for quota/backpressure, 409 for
// protocol conflicts (gaps, sealed sessions, incomplete commits), 413 for
// over-limit payloads, 400 for corruption.
func writeIngestError(w http.ResponseWriter, err error) {
	var (
		lim *trace.LimitError
		gap *ingest.GapError
		inc *ingest.IncompleteError
	)
	switch {
	case errors.Is(err, ingest.ErrNoSession):
		WriteError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ingest.ErrSessionQuota):
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ingest.ErrBusy):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ingest.ErrSealed), errors.Is(err, ingest.ErrCommitPending),
		errors.As(err, &gap), errors.As(err, &inc):
		WriteError(w, http.StatusConflict, err.Error())
	case errors.As(err, &lim):
		WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
	}
}
