package service

import (
	"errors"
	"net/http"

	"demandrace/internal/trace"
)

// Key-addressed result endpoints. Results are content-addressed (the
// cache key is a hash of the request or trace bytes), which makes them
// trivially replicable: any node can hold any key, and a copy is correct
// by construction. ddgate's replicator uses these three routes to read a
// shard listing, pull sealed results off owners, and push replicas onto
// successors — they are fleet-internal, so none of them touch the
// client-facing hit/miss accounting.
//
//	GET /v1/cache           keys this node can answer for
//	GET /v1/cache/{key}     the stored result bytes (404 when absent)
//	PUT /v1/cache/{key}     store replica bytes under key (204)

// maxCacheKeyLen bounds a replica key: cache keys are 64-char SHA-256
// hex, so anything much longer is a malformed or hostile request.
const maxCacheKeyLen = 128

func (s *Server) handleCacheKeys(w http.ResponseWriter, _ *http.Request) {
	keys := s.cache.keys()
	WriteJSON(w, http.StatusOK, map[string]any{
		"node": s.cfg.Node,
		"keys": keys,
	})
}

func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := s.cache.export(key)
	if !ok {
		WriteError(w, http.StatusNotFound, "no result stored under this key")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" || len(key) > maxCacheKeyLen {
		WriteError(w, http.StatusBadRequest, "replica key must be 1..128 bytes")
		return
	}
	// Replica payloads are sealed result documents, bounded like any other
	// upload this node accepts.
	data, err := readAllLimited(r.Body, s.cfg.MaxTraceBytes)
	if err != nil {
		var lim *trace.LimitError
		if errors.As(err, &lim) {
			WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(data) == 0 {
		WriteError(w, http.StatusBadRequest, "replica payload is empty")
		return
	}
	s.cache.put(key, data)
	w.WriteHeader(http.StatusNoContent)
}
