package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
	"demandrace/internal/service"
)

// eventBackend is a backend that serves only /v1/events, from a bus the
// test publishes on directly.
func eventBackend(t *testing.T) (*stream.Bus, *httptest.Server) {
	t.Helper()
	bus := stream.NewBus("ddserved")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) { stream.ServeSSE(w, r, bus) })
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ts.Close()
	})
	return bus, ts
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nextJob returns the job ID of the next gateway event, failing after 10 s.
func nextJob(t *testing.T, sub *stream.Sub) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ev, ok := sub.Next(ctx)
	if !ok {
		t.Fatal("no event reached the gateway bus in 10s")
	}
	return ev.Job
}

// TestGatewayTailResumesAcrossDisconnect: an event a backend publishes
// while the gateway's tail is disconnected reaches gateway subscribers
// once the tail reconnects, because the tail resumes with Last-Event-ID.
func TestGatewayTailResumesAcrossDisconnect(t *testing.T) {
	bus, ts := eventBackend(t)
	g, _ := newGateway(t, Config{Backends: []Backend{{Name: "b0", URL: ts.URL}}})
	sub := g.Events().Subscribe(0)
	defer sub.Close()
	g.Start()

	waitFor(t, "the tail to subscribe", func() bool { return bus.Subscribers() == 1 })
	bus.Publish(stream.Event{Type: stream.TypeJobQueued, Job: "j-1"})
	if got := nextJob(t, sub); got != "b0:j-1" {
		t.Fatalf("first tailed job = %q, want b0:j-1", got)
	}

	ts.CloseClientConnections()
	waitFor(t, "the tail to drop", func() bool { return bus.Subscribers() == 0 })
	bus.Publish(stream.Event{Type: stream.TypeJobDone, Job: "j-1", Detail: map[string]string{"state": "failed"}})
	bus.Publish(stream.Event{Type: stream.TypeJobQueued, Job: "j-2"})
	for _, want := range []string{"b0:j-1", "b0:j-2"} {
		if got := nextJob(t, sub); got != want {
			t.Fatalf("tailed job = %q, want %q", got, want)
		}
	}
}

// TestGatewayTailTracksKeyedJobDone: a done job_done carrying its result's
// key is enrolled for replication and indexed for read-repair by the tail
// alone, whether or not the gateway routed the job.
func TestGatewayTailTracksKeyedJobDone(t *testing.T) {
	bus, ts := eventBackend(t)
	_, other := eventBackend(t)
	g, _ := newGateway(t, Config{
		Backends: []Backend{{Name: "b0", URL: ts.URL}, {Name: "b1", URL: other.URL}},
		Replicas: 2,
	})
	g.Start()
	waitFor(t, "the tail to subscribe", func() bool { return bus.Subscribers() == 1 })

	bus.Publish(stream.Event{Type: stream.TypeJobDone, Job: "j-9",
		Detail: map[string]string{"state": "done", "key": "k-9"}})
	waitFor(t, "the key to be tracked", func() bool { return g.Replication().StatsSnapshot().Tracked == 1 })
	if key, ok := g.jobKeys.get("b0:j-9"); !ok || key != "k-9" {
		t.Fatalf("jobKeys[b0:j-9] = %q, %v; want k-9", key, ok)
	}
}

// TestClusterStreamedResultReplicates: a trace streamed through ddgate is
// committed on one backend, reaches its ring successor through the tail's
// keyed job_done, and still answers with the same bytes after its owner
// closes.
func TestClusterStreamedResultReplicates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	raw := recordRacyTrace(t)
	opts := service.TraceOptions{MaxReports: -1}

	servers := map[string]*httptest.Server{}
	var backends []Backend
	for _, name := range []string{"b1", "b2"} {
		_, ts := startBackend(t)
		servers[name] = ts
		backends = append(backends, Backend{Name: name, URL: ts.URL})
	}
	g, cl := newGateway(t, Config{Backends: backends, Replicas: 2})
	g.Start()

	st, err := cl.StreamTrace(ctx, raw, opts, service.StreamOptions{ChunkBytes: len(raw)/3 + 1})
	if err != nil {
		t.Fatalf("StreamTrace through the gateway: %v", err)
	}
	want, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	key := service.TraceCacheKey(raw, opts)
	waitFor(t, "the streamed result to replicate", func() bool { return len(g.Replication().Holders(key)) == 2 })

	owner, _, _ := splitJobID(st.ID)
	dead := servers[owner]
	dead.Listener.Close()
	dead.CloseClientConnections()
	dead.Close()
	got, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result after the owner closed: %v", err)
	}
	if string(got) != string(want) {
		t.Fatal("the repaired result differs from the owner's")
	}
	if n := g.reg.CounterValue(obs.ReplicaReadRepairs); n < 1 {
		t.Fatalf("replica_read_repair_total = %d, want >= 1", n)
	}
}

// TestGatewayRejectsOutOfRangeKnobs: the gateway edge answers 400 to a
// request no backend could run, before any round trip.
func TestGatewayRejectsOutOfRangeKnobs(t *testing.T) {
	_, ts := startBackend(t)
	g, cl := newGateway(t, Config{Backends: []Backend{{Name: "b0", URL: ts.URL}}})
	for _, req := range []service.Request{
		{Kernel: "racy_flag", Skid: -1},
		{Kernel: "racy_flag", Cores: 65},
		{Kernel: "racy_flag", Policy: "sampling", SampleRate: 1.5},
	} {
		_, err := cl.Submit(context.Background(), req)
		var ae *service.APIError
		if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
			t.Errorf("%+v: %v, want a 400", req, err)
		}
	}
	if n := g.reg.CounterValue(obs.GateForwards); n != 0 {
		t.Fatalf("%d forwards, want none", n)
	}
}
