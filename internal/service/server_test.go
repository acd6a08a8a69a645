package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"demandrace/internal/demand"
	"demandrace/internal/obs"
	"demandrace/internal/runner"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// newTestServer builds and starts a server, returning it with an httptest
// front end and a client pointed at it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s := NewServer(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts, &Client{BaseURL: ts.URL, PollInterval: 5 * time.Millisecond}
}

func TestSubmitPollFetch(t *testing.T) {
	s, _, cl := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	st, err := cl.Submit(ctx, Request{Kernel: "racy_flag"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("fresh job in unexpected state %q", st.State)
	}
	if st.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	st, err = cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("job ended %q (%s), want done", st.State, st.Error)
	}
	data, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var rep runner.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	if rep.Program != "racy_flag" {
		t.Fatalf("report program = %q, want racy_flag", rep.Program)
	}
	if len(rep.Races) == 0 {
		t.Fatal("racy_flag run reported no races")
	}
	if got := s.reg.CounterValue(obs.SvcJobsCompleted); got != 1 {
		t.Fatalf("completed counter = %d, want 1", got)
	}
}

func TestCacheHitOnIdenticalResubmit(t *testing.T) {
	s, _, cl := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	req := Request{Kernel: "racy_flag", Policy: "continuous", Seed: 7}

	st1, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if _, err := cl.Wait(ctx, st1.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	st2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if !st2.CacheHit {
		t.Fatal("identical resubmission was not a cache hit")
	}
	if st2.State != StateDone {
		t.Fatalf("cache-hit job state = %q, want done immediately", st2.State)
	}
	d1, err := cl.Result(ctx, st1.ID)
	if err != nil {
		t.Fatalf("Result(first): %v", err)
	}
	d2, err := cl.Result(ctx, st2.ID)
	if err != nil {
		t.Fatalf("Result(second): %v", err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("cached result differs from the original")
	}
	// The acceptance criterion: the hit is visible in /metrics.
	if hits := s.reg.CounterValue(obs.SvcCacheHits); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := s.reg.CounterValue(obs.SvcCacheMisses); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
	// A different request must not hit.
	st3, err := cl.Submit(ctx, Request{Kernel: "racy_flag", Policy: "continuous", Seed: 8})
	if err != nil {
		t.Fatalf("third Submit: %v", err)
	}
	if st3.CacheHit {
		t.Fatal("different-seed submission falsely hit the cache")
	}
}

func TestQueueFullReturns429(t *testing.T) {
	// Workers are never started, so queued jobs stay queued and the
	// bounded queue fills deterministically.
	s := NewServer(Config{QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"kernel":"racy_flag"}`))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := submit(); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	resp := submit()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if got := s.reg.CounterValue(obs.SvcJobsRejected); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if got := s.reg.CounterValue(obs.SvcJobsSubmitted); got != 2 {
		t.Fatalf("submitted counter = %d, want 2", got)
	}
}

func TestDeadlineExceededJobIsCanceled(t *testing.T) {
	s, ts, cl := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// A scaled-up kernel runs for hundreds of milliseconds; a 1 ms budget
	// must abort it at a quantum boundary.
	st, err := cl.Submit(ctx, Request{Kernel: "histogram", Scale: 200, TimeoutMS: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err = cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("job state = %q (%s), want canceled", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/results/" + st.ID)
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("result of canceled job: status %d, want 504", resp.StatusCode)
	}
	if got := s.reg.CounterValue(obs.SvcJobsCanceled); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}

func TestGracefulShutdownDrainsInFlightJobs(t *testing.T) {
	s := NewServer(Config{Workers: 2, QueueDepth: 16})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL, PollInterval: 5 * time.Millisecond}
	ctx := context.Background()

	var ids []string
	for i := 0; i < 6; i++ {
		st, err := cl.Submit(ctx, Request{Kernel: "racy_flag", Seed: int64(i)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Every job admitted before the drain must have completed.
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s ended %q (%s), want done after drain", id, st.State, st.Error)
		}
	}
	// New submissions are refused with 503 while results stay readable.
	if _, err := cl.Submit(ctx, Request{Kernel: "racy_flag"}); err == nil {
		t.Fatal("submission after shutdown succeeded")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != http.StatusServiceUnavailable {
			t.Fatalf("post-shutdown submit error = %v, want 503 APIError", err)
		}
	}
	if _, err := cl.Result(ctx, ids[0]); err != nil {
		t.Fatalf("Result after drain: %v", err)
	}
}

func TestTraceUploadReplayJob(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// Record a continuous-analysis run, then replay it through the daemon.
	k, _ := workloads.ByName("racy_flag")
	p := k.Build(workloads.Config{Threads: 4, Scale: 1})
	cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
	rec := trace.NewRecorder(p.Name)
	cfg.Tracer = rec
	if _, err := runner.Run(p, cfg); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, rec.Trace()); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}

	st, err := cl.SubmitTrace(ctx, &buf, TraceOptions{MaxReports: -1})
	if err != nil {
		t.Fatalf("SubmitTrace: %v", err)
	}
	if st.Kind != "trace" || st.Name != "racy_flag" {
		t.Fatalf("trace job status = %+v", st)
	}
	st, err = cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("trace job ended %q (%s)", st.State, st.Error)
	}
	data, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var rr ReplayResult
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("decoding replay result: %v", err)
	}
	if rr.Program != "racy_flag" || rr.Events == 0 {
		t.Fatalf("replay result = %+v", rr)
	}
	if len(rr.Races) == 0 {
		t.Fatal("replay of a continuous racy_flag trace found no races")
	}
}

func TestTraceUploadOverLimitReturns413(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, MaxTraceBytes: 64})
	big := bytes.Repeat([]byte{0xAB}, 1024)
	resp, err := http.Post(ts.URL+"/v1/jobs", TraceContentType, bytes.NewReader(big))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"kernel":"no_such_kernel"}`,
		`{"kernel":"racy_flag","policy":"bogus"}`,
		`{}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestSubmitRejectsOutOfRangeKnobs: a request whose every field parses
// but which the PMU, the cache hierarchy or the demand controller would
// reject is a 400 at submit, not an accepted job that fails later.
func TestSubmitRejectsOutOfRangeKnobs(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"kernel":"racy_flag","skid":-1}`,
		`{"kernel":"racy_flag","cores":65}`,
		`{"kernel":"racy_flag","policy":"sampling","sample_rate":1.5}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := s.Registry().CounterValue(obs.SvcJobsSubmitted); n != 0 {
		t.Fatalf("%d jobs admitted, want 0", n)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	s, ts, cl := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	st, err := cl.Submit(ctx, Request{Kernel: "racy_flag"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp2.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp2.Body)
	text := out.String()
	for _, want := range []string{
		obs.SvcJobsSubmitted + " 1",
		"# TYPE " + obs.SvcJobsSubmitted + " counter",
		"ddrace_runs_total 1", // job run counters aggregate into the same registry
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	_ = s
}
