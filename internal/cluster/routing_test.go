package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"demandrace/internal/obs"
	"demandrace/internal/service"
)

// TestBackendNameColonRejected: gateway IDs are "<backend>:<id>" split at
// the first colon, so a backend name holding one would hand out IDs the
// gateway itself cannot route. Both ways a name enters are checked.
func TestBackendNameColonRejected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wantErr bool
	}{
		{"b1", false},
		{"127.0.0.1-8318", false},
		{"x:y", true},
		{":", true},
		{"a:b:c", true},
	} {
		_, perr := ParseBackends(tc.name + "=http://127.0.0.1:1")
		_, gerr := NewGateway(Config{Backends: []Backend{{Name: tc.name, URL: "http://127.0.0.1:1"}}})
		if (perr != nil) != tc.wantErr || (gerr != nil) != tc.wantErr {
			t.Errorf("name %q: ParseBackends err %v, NewGateway err %v; want error %v",
				tc.name, perr, gerr, tc.wantErr)
		}
	}
	// A name derived from the URL never holds a colon.
	bs, err := ParseBackends("http://127.0.0.1:8318")
	if err != nil || bs[0].Name != "127.0.0.1-8318" {
		t.Fatalf("derived name: %+v, %v", bs, err)
	}
}

// TestOwnerUnreachableCounts502: every request answered 502 because its
// owner could not be reached counts in ddgate_errors_total, whichever
// owner-routed endpoint it hit.
func TestOwnerUnreachableCounts502(t *testing.T) {
	ctx := context.Background()
	_, bts := startBackend(t)
	g, cl := newGateway(t, Config{Backends: []Backend{{Name: "b1", URL: bts.URL}}})

	st, err := cl.Submit(ctx, service.Request{Kernel: "racy_flag"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	resp, err := http.Post(cl.BaseURL+"/v1/traces", "", nil)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	var sess service.TraceSession
	json.NewDecoder(resp.Body).Decode(&sess)
	resp.Body.Close()
	if !strings.HasPrefix(sess.Session, "b1:") {
		t.Fatalf("session %q not namespaced", sess.Session)
	}

	bts.Close()
	before := g.reg.CounterValue(obs.GateErrors)
	paths := []string{
		"/v1/jobs/" + st.ID,
		"/v1/results/" + st.ID,
		"/v1/jobs/" + st.ID + "/partial",
		"/v1/jobs/b1:j-999/trace", // no gateway spans to fall back on
		"/v1/traces/" + sess.Session,
	}
	for _, p := range paths {
		resp, err := http.Get(cl.BaseURL + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Errorf("GET %s = %d, want 502", p, resp.StatusCode)
		}
	}
	if got := g.reg.CounterValue(obs.GateErrors) - before; got != uint64(len(paths)) {
		t.Errorf("ddgate_errors_total rose by %d over %d 502 answers", got, len(paths))
	}
}

// TestGatewayCacheRoutesUnmounted: the replication endpoints are
// fleet-internal; the gateway shares ddserved's route table but does not
// serve them.
func TestGatewayCacheRoutesUnmounted(t *testing.T) {
	_, bts := startBackend(t)
	_, cl := newGateway(t, Config{Backends: []Backend{{Name: "b1", URL: bts.URL}}})
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/cache"},
		{http.MethodGet, "/v1/cache/abc"},
		{http.MethodPut, "/v1/cache/abc"},
	} {
		req, _ := http.NewRequest(tc.method, cl.BaseURL+tc.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestGatewayMetricsAndDashboard: after a failover the gateway's /metrics
// exposition carries the forwarding ledger with the retry counted, and
// /v1/dashboard serves the console under the gateway's node name.
func TestGatewayMetricsAndDashboard(t *testing.T) {
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(sick.Close)
	_, healthy := startBackend(t)
	g, cl := newGateway(t, Config{Backends: []Backend{
		{Name: "sick", URL: sick.URL},
		{Name: "ok", URL: healthy.URL},
	}})
	if _, err := cl.Submit(context.Background(), requestOwnedBy(t, g.Ring(), "sick")); err != nil {
		t.Fatalf("Submit with a sick owner: %v", err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(cl.BaseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return string(body)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(get("/metrics"), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			values[name], _ = strconv.ParseFloat(v, 64)
		}
	}
	for _, name := range []string{obs.GateRequests, obs.GateForwards, obs.GateRetries, obs.GateRingMembers} {
		if _, ok := values[name]; !ok {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	if values[obs.GateRetries] < 1 || values[obs.GateRingMembers] != 2 {
		t.Errorf("retries = %v, ring members = %v; want >= 1 and 2",
			values[obs.GateRetries], values[obs.GateRingMembers])
	}
	if html := get("/v1/dashboard"); !strings.Contains(html, "<html") || !strings.Contains(html, "ddgate") {
		t.Errorf("dashboard is not the ddgate console (%d bytes)", len(html))
	}
}

// TestClusterStatsReplicationSection: with -replicas 2 the fleet stats
// document carries the replication section once a sealed result is
// tracked.
func TestClusterStatsReplicationSection(t *testing.T) {
	ctx := context.Background()
	_, b1 := startBackend(t)
	_, b2 := startBackend(t)
	g, cl := newGateway(t, Config{
		Backends: []Backend{{Name: "b1", URL: b1.URL}, {Name: "b2", URL: b2.URL}},
		Replicas: 2,
	})
	req := service.Request{Kernel: "racy_flag", Seed: 5}
	if _, _, err := cl.Run(ctx, req); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Without event tailers, a born-done resubmission is what tracks the key.
	if _, err := cl.Submit(ctx, req); err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	cs := g.Stats(ctx)
	if cs.Replication == nil || cs.Replication.Factor != 2 || cs.Replication.Tracked < 1 {
		t.Fatalf("stats replication = %+v, want factor 2 with a tracked key", cs.Replication)
	}
}
