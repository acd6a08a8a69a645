package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"demandrace/internal/obs"
)

// tracer keeps every span of a traced phase in memory until the run ends.
// A traced operation has one root span ("op") and one span per stage of
// the path that produced its result; stages do not overlap, so a stage's
// span is its self time. The tracer sums each stage over all traced
// operations into the ledger the per-layer shares are taken from.
type tracer struct {
	mu     sync.Mutex
	recs   []obs.SpanRecord
	stages map[string]time.Duration
	total  time.Duration
}

func newTracer() *tracer {
	return &tracer{stages: map[string]time.Duration{}}
}

// op records the root span of traced operation req.
func (t *tracer) op(req int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total += end.Sub(start)
	t.recs = append(t.recs, obs.SpanRecord{
		Track: "bench", Name: "op", Start: start, Dur: end.Sub(start),
		Attrs: []obs.SpanAttr{{Key: "req", Value: strconv.Itoa(req)}},
	})
}

// stage records one stage of operation req. layer is the module that did
// the work (the span's track); layer+"."+name keys the ledger.
func (t *tracer) stage(req int, layer, name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stages[layer+"."+name] += d
	t.recs = append(t.recs, obs.SpanRecord{
		Track: layer, Name: name, Start: start, Dur: d,
		Attrs: []obs.SpanAttr{{Key: "req", Value: strconv.Itoa(req)}, {Key: "parent", Value: "op"}},
	})
}

// share is stage key's part of the traced operations' time.
func (t *tracer) share(key string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= 0 {
		return 0
	}
	return float64(t.stages[key]) / float64(t.total)
}

// write saves the spans as one Chrome trace-event file per workload.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	recs := append([]obs.SpanRecord(nil), t.recs...)
	t.mu.Unlock()
	data, err := obs.EncodeSpanTrace("bench "+workload, recs, map[string]string{"workload": workload})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
