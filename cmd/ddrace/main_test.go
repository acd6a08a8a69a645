package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demandrace/internal/obs/stream"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf, io.Discard); err != nil {
		t.Fatalf("ddrace %v: %v", args, err)
	}
	return buf.String()
}

func TestVersionFlag(t *testing.T) {
	out := runCLI(t, "-version")
	if !strings.HasPrefix(out, "ddrace version ") {
		t.Errorf("-version output = %q", out)
	}
}

func TestList(t *testing.T) {
	out := runCLI(t, "-list")
	for _, want := range []string{"histogram", "swaptions", "micro_eviction", "racy_counter", "vips"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunKernel(t *testing.T) {
	out := runCLI(t, "-kernel", "racy_counter", "-policy", "continuous", "-v")
	if !strings.Contains(out, "policy:    continuous") {
		t.Errorf("missing policy line:\n%s", out)
	}
	if !strings.Contains(out, "race write-write") && !strings.Contains(out, "race read-write") {
		t.Errorf("verbose run printed no race report:\n%s", out)
	}
}

func TestCompare(t *testing.T) {
	out := runCLI(t, "-kernel", "micro_private", "-compare")
	for _, want := range []string{"off", "sync-only", "sampling", "watch-demand", "hitm-demand", "hybrid", "continuous"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing policy %q:\n%s", want, out)
		}
	}
}

func TestInjectFlag(t *testing.T) {
	out := runCLI(t, "-kernel", "micro_private", "-policy", "continuous",
		"-inject", "2", "-inject-repeats", "4")
	if strings.Count(out, "injected") != 2 {
		t.Errorf("expected 2 injection lines:\n%s", out)
	}
	if !strings.Contains(out, "2 distinct racy words") {
		t.Errorf("continuous run should report both injected races:\n%s", out)
	}
}

func TestRecordFlagWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.drt")
	out := runCLI(t, "-kernel", "racy_flag", "-policy", "continuous", "-record", path)
	if !strings.Contains(out, "events written to") {
		t.Errorf("missing trace confirmation:\n%s", out)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Errorf("trace file missing or empty: %v", err)
	}
}

// chromeTraceDoc mirrors the Chrome trace-event JSON object model closely
// enough to assert on span structure.
type chromeTraceDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		TID  int     `json:"tid"`
	} `json:"traceEvents"`
	OtherData map[string]string `json:"otherData"`
}

func TestChromeTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := runCLI(t, "-kernel", "racy_flag", "-policy", "hitm-demand", "-trace", path)
	if !strings.Contains(out, "chrome trace:") {
		t.Errorf("missing trace confirmation:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeTraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.OtherData["clock"] != "simulated-cycles" {
		t.Errorf("otherData.clock = %q", doc.OtherData["clock"])
	}
	// A racy kernel under hitm-demand must show a per-thread
	// fast → analysis mode progression as complete ("X") spans.
	var fast, analysis, instants int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Name == "fast":
			fast++
		case ev.Ph == "X" && ev.Name == "analysis":
			analysis++
		case ev.Ph == "i":
			instants++
		}
	}
	if fast == 0 || analysis == 0 {
		t.Errorf("expected both fast and analysis spans, got fast=%d analysis=%d", fast, analysis)
	}
	if instants == 0 {
		t.Error("expected instant pipeline events in the trace")
	}
}

func TestEventsFlagWritesNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	runCLI(t, "-kernel", "racy_flag", "-policy", "hitm-demand", "-events", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 {
		t.Fatal("empty event log")
	}
	sawRace := false
	for i, ln := range lines {
		var ev map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, ln)
		}
		if ev["kind"] == "race" {
			sawRace = true
		}
	}
	if !sawRace {
		t.Error("racy kernel event log has no race event")
	}
}

func TestMetricsFlag(t *testing.T) {
	out := runCLI(t, "-kernel", "racy_counter", "-policy", "continuous", "-metrics")
	for _, want := range []string{
		"ddrace_runs_total 1",
		"ddrace_detector_races_total",
		"ddrace_run_slowdown_bucket",
		"# TYPE ddrace_run_slowdown histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

func TestBatchRejectsSingleRunTelemetry(t *testing.T) {
	for _, extra := range [][]string{
		{"-trace", "x.json"}, {"-events", "x.ndjson"}, {"-record", "x.drt"},
	} {
		var buf bytes.Buffer
		args := append([]string{"-batch", "histogram"}, extra...)
		if err := run(args, &buf, io.Discard); err == nil {
			t.Errorf("ddrace %v: expected error", args)
		}
	}
}

// TestTelemetryDeterminism is the acceptance check for the telemetry layer:
// every exported artifact — metrics exposition, Chrome trace, NDJSON event
// log — must be byte-identical between a serial and a wide fan-out, because
// everything is timestamped in simulated cycles.
func TestTelemetryDeterminism(t *testing.T) {
	batch := func(workers string) string {
		return runCLI(t, "-batch", "phoenix", "-policy", "hitm-demand", "-metrics", "-workers", workers)
	}
	if serial, wide := batch("1"), batch("8"); serial != wide {
		t.Errorf("-batch -metrics output differs across worker counts:\n--- serial ---\n%s--- workers=8 ---\n%s", serial, wide)
	}

	artifacts := func(dir string) (string, string) {
		tr, ev := filepath.Join(dir, "t.json"), filepath.Join(dir, "e.ndjson")
		runCLI(t, "-kernel", "racy_flag", "-policy", "hitm-demand", "-trace", tr, "-events", ev)
		tb, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := os.ReadFile(ev)
		if err != nil {
			t.Fatal(err)
		}
		return string(tb), string(eb)
	}
	t1, e1 := artifacts(t.TempDir())
	t2, e2 := artifacts(t.TempDir())
	if t1 != t2 {
		t.Error("chrome trace differs across runs")
	}
	if e1 != e2 {
		t.Error("event log differs across runs")
	}

	cmp := func(workers string) string {
		return runCLI(t, "-kernel", "micro_write_write", "-compare", "-metrics", "-workers", workers)
	}
	if serial, wide := cmp("1"), cmp("8"); serial != wide {
		t.Errorf("-compare -metrics output differs across worker counts:\n%s\nvs\n%s", serial, wide)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                  // no kernel
		{"-kernel", "nope"}, // unknown kernel
		{"-kernel", "histogram", "-policy", "nope"},
		{"-kernel", "histogram", "-scope", "nope"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf, io.Discard); err == nil {
			t.Errorf("ddrace %v: expected error", args)
		}
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, name := range []string{"off", "continuous", "sync-only", "hitm-demand", "hybrid", "sampling", "watch-demand"} {
		k, err := parsePolicy(name)
		if err != nil {
			t.Errorf("parsePolicy(%q): %v", name, err)
			continue
		}
		if k.String() != name {
			t.Errorf("round trip %q → %q", name, k.String())
		}
	}
}

func TestScopeRoundTrip(t *testing.T) {
	for _, name := range []string{"global", "pair", "self"} {
		s, err := parseScope(name)
		if err != nil {
			t.Errorf("parseScope(%q): %v", name, err)
			continue
		}
		if s.String() != name {
			t.Errorf("round trip %q → %q", name, s.String())
		}
	}
}

func TestWatchDemandCLI(t *testing.T) {
	out := runCLI(t, "-kernel", "racy_mostly_clean", "-policy", "watch-demand", "-watchcap", "2")
	if !strings.Contains(out, "policy:    watch-demand") {
		t.Errorf("output:\n%s", out)
	}
}

func TestSamplingCLI(t *testing.T) {
	out := runCLI(t, "-kernel", "racy_counter", "-policy", "sampling", "-rate", "0.5", "-seed", "3")
	if !strings.Contains(out, "policy:    sampling") {
		t.Errorf("output:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	out := runCLI(t, "-kernel", "racy_counter", "-policy", "continuous", "-json")
	var rep map[string]interface{}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep["Program"] != "racy_counter" {
		t.Errorf("Program = %v", rep["Program"])
	}
	if _, ok := rep["Races"]; !ok {
		t.Error("JSON missing Races")
	}
}

func TestHTMLOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.html")
	runCLI(t, "-kernel", "racy_counter", "-policy", "continuous", "-html", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<!DOCTYPE html>") {
		t.Error("html file malformed")
	}
}

func TestExploreFlag(t *testing.T) {
	out := runCLI(t, "-kernel", "racy_counter", "-policy", "continuous", "-explore", "4")
	if !strings.Contains(out, "explored 4 interleavings") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "hit in 100% of schedules") {
		t.Errorf("solid race not reported:\n%s", out)
	}
}

func TestBatchSuite(t *testing.T) {
	out := runCLI(t, "-batch", "phoenix")
	if !strings.Contains(out, "batch: 8 kernels under hitm-demand") {
		t.Errorf("missing batch header:\n%s", out)
	}
	for _, want := range []string{"histogram", "kmeans", "word_count"} {
		if !strings.Contains(out, want) {
			t.Errorf("batch output missing kernel %q", want)
		}
	}
}

func TestBatchExplicitListDeterministic(t *testing.T) {
	serial := runCLI(t, "-batch", "histogram,x264,racy_counter", "-policy", "continuous", "-workers", "1")
	wide := runCLI(t, "-batch", "histogram,x264,racy_counter", "-policy", "continuous", "-workers", "8")
	if serial != wide {
		t.Errorf("batch output differs across worker counts:\n--- serial ---\n%s--- workers=8 ---\n%s", serial, wide)
	}
	// Rows come out in the order the batch named them.
	if h, x := strings.Index(serial, "histogram"), strings.Index(serial, "x264"); h < 0 || x < 0 || h > x {
		t.Errorf("batch rows out of order:\n%s", serial)
	}
	if !strings.Contains(serial, "racy_counter") {
		t.Errorf("racy_counter row missing:\n%s", serial)
	}
}

func TestBatchErrors(t *testing.T) {
	for _, spec := range []string{"nope", "histogram,nope"} {
		var buf bytes.Buffer
		if err := run([]string{"-batch", spec}, &buf, io.Discard); err == nil {
			t.Errorf("-batch %s: expected error", spec)
		}
	}
}

func TestCompareWorkersDeterministic(t *testing.T) {
	serial := runCLI(t, "-kernel", "micro_private", "-compare", "-workers", "1")
	wide := runCLI(t, "-kernel", "micro_private", "-compare", "-workers", "8")
	if serial != wide {
		t.Errorf("-compare output differs across worker counts:\n%s\nvs\n%s", serial, wide)
	}
}

// TestProfileFlagDeterministic is the acceptance check for the cycle
// profiler: two identical runs must write byte-identical folded stacks,
// because samples are taken on the simulated-cycle clock, not wall time.
func TestProfileFlagDeterministic(t *testing.T) {
	folded := func(dir string) ([]byte, string) {
		path := filepath.Join(dir, "out.folded")
		out := runCLI(t, "-kernel", "racy_flag", "-policy", "hitm-demand", "-profile", path)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b, out
	}
	b1, out1 := folded(t.TempDir())
	b2, _ := folded(t.TempDir())
	if len(b1) == 0 {
		t.Fatal("empty folded profile")
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("folded profiles differ across identical runs:\n%s\nvs\n%s", b1, b2)
	}
	// Folded lines carry the kernel name and end in a sample count.
	for _, line := range strings.Split(strings.TrimSpace(string(b1)), "\n") {
		if !strings.HasPrefix(line, "racy_flag;") || !strings.Contains(line, " ") {
			t.Errorf("malformed folded line %q", line)
		}
	}
	// Stdout gets the summary table; it is part of the deterministic surface.
	if !strings.Contains(out1, "cycle profile:") || !strings.Contains(out1, "samples") {
		t.Errorf("missing profile summary on stdout:\n%s", out1)
	}
}

func TestProfileEveryChangesSampleDensity(t *testing.T) {
	dir := t.TempDir()
	coarse, fine := filepath.Join(dir, "c.folded"), filepath.Join(dir, "f.folded")
	runCLI(t, "-kernel", "racy_flag", "-profile", coarse, "-profile-every", "4096")
	runCLI(t, "-kernel", "racy_flag", "-profile", fine, "-profile-every", "64")
	sum := func(path string) int {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var n int
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			total += n
		}
		return total
	}
	if c, f := sum(coarse), sum(fine); f <= c {
		t.Errorf("finer period should collect more samples: every=64 got %d, every=4096 got %d", f, c)
	}
}

func TestBatchRejectsProfile(t *testing.T) {
	for _, args := range [][]string{
		{"-batch", "histogram", "-profile", "x.folded"},
		{"-compare", "-kernel", "racy_flag", "-profile", "x.folded"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("ddrace %v: expected error", args)
		}
	}
}

// TestLogLevelErrorSilencesBatchTiming: batch timing diagnostics flow
// through the logger's level gate, so -log-level=error means zero stderr.
func TestLogLevelErrorSilencesBatchTiming(t *testing.T) {
	var diag bytes.Buffer
	if err := run([]string{"-batch", "phoenix", "-log-level", "error"}, io.Discard, &diag); err != nil {
		t.Fatal(err)
	}
	if diag.Len() != 0 {
		t.Errorf("-log-level=error still wrote %d stderr bytes:\n%s", diag.Len(), diag.String())
	}
	// At the default level the timing lines are present.
	var loud bytes.Buffer
	if err := run([]string{"-batch", "phoenix"}, io.Discard, &loud); err != nil {
		t.Fatal(err)
	}
	if loud.Len() == 0 {
		t.Error("default level suppressed batch timing diagnostics")
	}
}

// sseHandler serves a canned SSE conversation: each connection writes its
// script (indexed by connection number) and returns, closing the stream.
func sseHandler(t *testing.T, scripts []string, lastIDs *[]string) http.HandlerFunc {
	t.Helper()
	var conn atomic.Int32
	return func(w http.ResponseWriter, r *http.Request) {
		n := int(conn.Add(1)) - 1
		*lastIDs = append(*lastIDs, r.Header.Get("Last-Event-ID"))
		if n >= len(scripts) {
			// Out of script: hold the connection briefly so the tail does
			// not spin, then drop it.
			time.Sleep(50 * time.Millisecond)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, scripts[n])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
	}
}

func sseEvent(seq int, typ string) string {
	return fmt.Sprintf("id: %d\nevent: %s\ndata: {\"seq\":%d,\"t\":1,\"type\":%q}\n\n", seq, typ, seq, typ)
}

// TestWatchReconnectsAndResumes: a dropped connection is retried with
// Last-Event-ID, replayed duplicates are suppressed, and the second hello
// is not reprinted.
func TestWatchReconnectsAndResumes(t *testing.T) {
	hello := "event: hello\ndata: {\"t\":1,\"type\":\"hello\",\"node\":\"n0\"}\n\n"
	var lastIDs []string
	srv := httptest.NewServer(sseHandler(t, []string{
		hello + sseEvent(1, "job_queued"), // conn 1, then drop
		hello + sseEvent(1, "job_queued") + sseEvent(2, "job_started") + sseEvent(3, "job_done"), // conn 2 replays 1
	}, &lastIDs))
	defer srv.Close()

	var buf bytes.Buffer
	// hello + seq 1..3 = 4 printed events; seq 1's replay must not count twice.
	if err := run([]string{"-watch", srv.URL, "-watch-count", "4"}, &buf, io.Discard); err != nil {
		t.Fatalf("-watch: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("printed %d lines, want 4:\n%s", len(lines), buf.String())
	}
	var types []string
	for _, ln := range lines {
		var ev struct {
			Type string `json:"type"`
			Seq  uint64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		types = append(types, ev.Type)
	}
	want := []string{"hello", "job_queued", "job_started", "job_done"}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("printed types = %v, want %v", types, want)
		}
	}
	if len(lastIDs) < 2 || lastIDs[0] != "" || lastIDs[1] != "1" {
		t.Fatalf("Last-Event-ID per connection = %v, want [\"\" \"1\" ...]", lastIDs)
	}
}

// TestAlertsFlagFiltersEvents: -alerts prints only alert transitions.
func TestAlertsFlagFiltersEvents(t *testing.T) {
	hello := "event: hello\ndata: {\"t\":1,\"type\":\"hello\"}\n\n"
	var lastIDs []string
	srv := httptest.NewServer(sseHandler(t, []string{
		hello + sseEvent(1, "job_queued") + sseEvent(2, "alert_firing") +
			sseEvent(3, "cache_hit") + sseEvent(4, "alert_resolved"),
	}, &lastIDs))
	defer srv.Close()

	var buf bytes.Buffer
	if err := run([]string{"-alerts", srv.URL, "-watch-count", "2"}, &buf, io.Discard); err != nil {
		t.Fatalf("-alerts: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("printed %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, want := range []string{"alert_firing", "alert_resolved"} {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("line %d = %q, want %s", i, lines[i], want)
		}
	}
}

// TestWatchHTTPErrorIsFatal: a server that answers an error status ends
// the tail instead of retrying forever.
func TestWatchHTTPErrorIsFatal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	var buf bytes.Buffer
	err := run([]string{"-watch", srv.URL}, &buf, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("error = %v, want a fatal 503", err)
	}
}

func TestWatchAlertsExclusive(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-watch", "http://x", "-alerts", "http://y"}, &buf, io.Discard); err == nil {
		t.Fatal("-watch with -alerts accepted")
	}
}

// syncBuffer is a bytes.Buffer safe to read while run writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWatchFollowsRestartedServer: a server restarted behind the same URL
// numbers its events from 1 again, below the tail's watermark; the hello's
// epoch gives the restart away and -watch prints the new server's events.
func TestWatchFollowsRestartedServer(t *testing.T) {
	var cur atomic.Pointer[stream.Bus]
	old := stream.NewBus("n0")
	cur.Store(old)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stream.ServeSSE(w, r, cur.Load())
	}))
	defer func() {
		srv.CloseClientConnections()
		srv.Close()
	}()

	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run([]string{"-watch", srv.URL, "-watch-count", "6"}, &out, io.Discard) }()
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; printed:\n%s", what, out.String())
			}
		}
	}
	waitUntil("the tail to connect", func() bool { return old.Subscribers() == 1 })
	for _, j := range []string{"old-1", "old-2", "old-3"} {
		old.Publish(stream.Event{Type: stream.TypeJobQueued, Job: j})
	}
	waitUntil("the old server's events", func() bool { return strings.Count(out.String(), "\n") == 4 })

	fresh := stream.NewBus("n0")
	cur.Store(fresh)
	fresh.Publish(stream.Event{Type: stream.TypeJobQueued, Job: "new-1"})
	fresh.Publish(stream.Event{Type: stream.TypeJobDone, Job: "new-2"})
	srv.CloseClientConnections()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("-watch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("-watch never printed the restarted server's events; printed:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for i, want := range []string{"new-1", "new-2"} {
		if ln := lines[4+i]; !strings.Contains(ln, `"job":"`+want+`"`) {
			t.Fatalf("line %d = %s, want job %s", 4+i, ln, want)
		}
	}
}
