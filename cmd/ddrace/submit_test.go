package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/service"
)

// TestSubmitSaveTraceAndStream drives the daemon-client modes against an
// in-process ddserved: -submit -save-trace writes the job's stage
// waterfall, and -stream with an injected connection drop prints
// race_found lines before a sealed result whose bytes equal a one-shot
// upload's.
func TestSubmitSaveTraceAndStream(t *testing.T) {
	srv := service.NewServer(service.Config{Workers: 1})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	dir := t.TempDir()

	wf := filepath.Join(dir, "wf.json")
	out := runCLI(t, "-kernel", "racy_flag", "-policy", "hitm-demand", "-submit", ts.URL,
		"-save-trace", wf, "-log-level", "error")
	if !strings.Contains(out, "job:       j-1 on ") {
		t.Fatalf("-submit output lacks the job line:\n%s", out)
	}
	data, err := os.ReadFile(wf)
	if err != nil {
		t.Fatal(err)
	}
	recs, extra, err := obs.DecodeSpanTrace(data)
	if err != nil {
		t.Fatalf("-save-trace wrote undecodable JSON: %v", err)
	}
	if extra["job_id"] != "j-1" || extra["trace_id"] == "" {
		t.Fatalf("waterfall otherData = %v", extra)
	}
	stages := map[string]bool{}
	for _, r := range recs {
		stages[r.Name] = true
	}
	for _, want := range []string{"cache_lookup", "queue_wait", "analysis", "render", "job"} {
		if !stages[want] {
			t.Errorf("waterfall lacks stage %q (have %v)", want, stages)
		}
	}

	drt := filepath.Join(dir, "run.drt")
	runCLI(t, "-kernel", "racy_counter", "-policy", "continuous", "-record", drt)
	out = runCLI(t, "-stream", drt, "-submit", ts.URL, "-chunk-bytes", "512",
		"-stream-fault", "2", "-json", "-log-level", "error")

	raw, err := os.ReadFile(drt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := &service.Client{BaseURL: ts.URL, PollInterval: 2 * time.Millisecond}
	st, err := cl.SubmitTrace(ctx, bytes.NewReader(raw), service.TraceOptions{MaxReports: -1})
	if err != nil {
		t.Fatalf("one-shot upload: %v", err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	want, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !strings.HasSuffix(out, string(want)) {
		t.Fatalf("streamed result differs from the one-shot upload's:\n%s", out)
	}
	if !strings.Contains(strings.TrimSuffix(out, string(want)), `"type":"race_found"`) {
		t.Fatalf("no race_found line before the sealed result:\n%s", out)
	}
}
