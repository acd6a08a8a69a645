package stream

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// busServer serves whichever bus cur holds behind ServeSSE, so a test can
// swap in a fresh bus to play a restarted server at the same URL.
func busServer(t *testing.T, b *Bus) (*httptest.Server, *atomic.Pointer[Bus]) {
	t.Helper()
	var cur atomic.Pointer[Bus]
	cur.Store(b)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ServeSSE(w, r, cur.Load())
	}))
	t.Cleanup(func() {
		srv.CloseClientConnections()
		srv.Close()
	})
	return srv, &cur
}

// follow runs Follow in the background, delivering what it hands fn on
// the returned channel; the test's end stops it.
func follow(t *testing.T, url string) <-chan Event {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan Event, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Follow(ctx, http.DefaultClient, url, func(ev Event) error {
			got <- ev
			return nil
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return got
}

// next returns the next event Follow handed on, failing after 10 s.
func next(t *testing.T, got <-chan Event) Event {
	t.Helper()
	select {
	case ev := <-got:
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("Follow handed on nothing in 10s")
		return Event{}
	}
}

// expectJobs reads events until it has one per wanted job, in order,
// failing on a hello, a duplicate or anything out of order.
func expectJobs(t *testing.T, got <-chan Event, jobs ...string) {
	t.Helper()
	for _, want := range jobs {
		if ev := next(t, got); ev.Job != want {
			t.Fatalf("handed %s %q (seq %d), want job %q", ev.Type, ev.Job, ev.Seq, want)
		}
	}
}

// TestFollowResumesAfterDrop: a connection cut mid-stream is resumed with
// Last-Event-ID, and every event, including those published while the
// follower was away, is handed on once and in order.
func TestFollowResumesAfterDrop(t *testing.T) {
	b := NewBus("n0")
	srv, _ := busServer(t, b)
	got := follow(t, srv.URL)
	if ev := next(t, got); ev.Type != TypeHello || ev.Epoch == 0 {
		t.Fatalf("first event = %+v, want a hello with an epoch", ev)
	}
	for _, j := range []string{"j-1", "j-2", "j-3"} {
		b.Publish(Event{Type: TypeJobQueued, Job: j})
	}
	expectJobs(t, got, "j-1", "j-2", "j-3")

	srv.CloseClientConnections()
	for _, j := range []string{"j-4", "j-5", "j-6"} {
		b.Publish(Event{Type: TypeJobQueued, Job: j})
	}
	expectJobs(t, got, "j-4", "j-5", "j-6")
	// Nothing was handed twice: the next event is the next one published.
	b.Publish(Event{Type: TypeJobDone, Job: "j-7"})
	expectJobs(t, got, "j-7")
}

// TestFollowReplaysRestartedBus: a fresh bus behind the same URL starts
// its sequence at 1 again, below the follower's watermark; its epoch gives
// the restart away, and its events are handed on from the first.
func TestFollowReplaysRestartedBus(t *testing.T) {
	old := NewBus("n0")
	srv, cur := busServer(t, old)
	got := follow(t, srv.URL)
	next(t, got) // hello
	for _, j := range []string{"old-1", "old-2", "old-3"} {
		old.Publish(Event{Type: TypeJobQueued, Job: j})
	}
	expectJobs(t, got, "old-1", "old-2", "old-3")

	fresh := NewBus("n0")
	cur.Store(fresh)
	fresh.Publish(Event{Type: TypeJobQueued, Job: "new-1"})
	fresh.Publish(Event{Type: TypeJobDone, Job: "new-2"})
	srv.CloseClientConnections()
	expectJobs(t, got, "new-1", "new-2")
	fresh.Publish(Event{Type: TypeJobDone, Job: "new-3"})
	expectJobs(t, got, "new-3")
}

// TestFollowReturnsRefusalAndFnError: a non-200 answer and an error from
// fn end Follow with that error instead of a retry.
func TestFollowReturnsRefusalAndFnError(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusServiceUnavailable)
	}))
	defer refusing.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := Follow(ctx, http.DefaultClient, refusing.URL, func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("Follow of a 503 = %v, want an error naming the status", err)
	}

	srv, _ := busServer(t, NewBus("n0"))
	stop := errors.New("seen enough")
	if err := Follow(ctx, http.DefaultClient, srv.URL, func(Event) error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("Follow = %v, want fn's error", err)
	}
	if ctx.Err() != nil {
		t.Fatal("Follow retried instead of returning")
	}
}
