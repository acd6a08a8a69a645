package service

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"demandrace/internal/obs/alert"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/obs/tracectx"
)

// TestAlertsDocDefaults: out of the box /v1/alerts names the node and
// carries the compiled-in service rule set.
func TestAlertsDocDefaults(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/alerts")
	if err != nil {
		t.Fatalf("GET /v1/alerts: %v", err)
	}
	defer resp.Body.Close()
	var doc alert.Doc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding alerts: %v", err)
	}
	if doc.Node != "ddserved" {
		t.Fatalf("node = %q, want ddserved", doc.Node)
	}
	names := map[string]bool{}
	for _, r := range doc.Rules {
		names[r.Name] = true
	}
	if len(doc.Rules) != len(alert.ServiceDefaults(0.99, 1)) || !names["slo-fast-burn"] {
		t.Fatalf("rules = %v, want the compiled-in defaults", names)
	}
}

// TestLogsCarryClientTraceID: the trace ID a client mints reaches the
// daemon's access line and job lifecycle lines, correlating both views.
func TestLogsCarryClientTraceID(t *testing.T) {
	var logs syncBuffer
	lg := olog.New(olog.Options{Level: slog.LevelInfo, Format: olog.FormatJSON, Output: &logs})
	_, _, cl := newTestServer(t, Config{Workers: 1, Log: lg})
	tc := tracectx.New()
	ctx := tracectx.Into(context.Background(), tc)
	st, err := cl.Submit(ctx, Request{Kernel: "racy_flag"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	want := map[string]bool{"http request": false, "job queued": false, "job done": false}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) != nil || rec["trace_id"] != tc.TraceID() {
				continue
			}
			if msg, _ := rec["msg"].(string); msg != "" {
				if _, ok := want[msg]; ok {
					want[msg] = true
				}
			}
		}
		if want["http request"] && want["job queued"] && want["job done"] {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("log lines carrying trace %s: %v\n%s", tc.TraceID(), want, logs.String())
}
