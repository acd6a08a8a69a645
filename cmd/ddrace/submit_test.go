package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
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

// TestLocalRunIsTheSubmittedRequest: a local run analyzes exactly the
// request -submit would send, so knobs the daemon reads as "default" (a
// zero sample-after value, zero cores) mean the same locally, and knobs no
// run can honour are errors on both sides instead of panics.
func TestLocalRunIsTheSubmittedRequest(t *testing.T) {
	srv := service.NewServer(service.Config{Workers: 1})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})

	for _, args := range [][]string{
		{"-kernel", "racy_flag", "-sav", "0", "-skid", "20"},
		{"-kernel", "kmeans", "-cores", "0", "-moesi"},
	} {
		local := runCLI(t, append(args, "-json")...)
		remote := runCLI(t, append(args, "-json", "-submit", ts.URL, "-log-level", "error")...)
		var compact bytes.Buffer
		if err := json.Compact(&compact, []byte(local)); err != nil {
			t.Fatalf("%v: local -json output: %v", args, err)
		}
		if compact.String() != strings.TrimSpace(remote) {
			t.Errorf("%v: the local report differs from the daemon's", args)
		}
	}

	for _, knob := range [][]string{
		{"-skid", "-1"},
		{"-cores", "65"},
		{"-policy", "sampling", "-rate", "1.5"},
	} {
		args := append([]string{"-kernel", "racy_flag"}, knob...)
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("ddrace %v ran", args)
		}
		err := run(append(args, "-submit", ts.URL, "-log-level", "error"), io.Discard, io.Discard)
		var ae *service.APIError
		if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
			t.Errorf("ddrace %v -submit: %v, want a 400", args, err)
		}
	}
}
