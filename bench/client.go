package main

// The pieces the serving workloads share: in-process listeners, the
// benchmark's HTTP client, the job_done edges of one /v1/events
// subscription, and a job's server-side waterfall.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
	"demandrace/internal/service"
)

// jobTimeout bounds the wait for a job's job_done edge; a job not done by
// then counts as failed.
const jobTimeout = 5 * time.Second

// listener serves one handler on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close drops every connection and waits for the serve loop to return.
func (l *listener) close() {
	if l == nil {
		return
	}
	l.srv.Close()
	<-l.done
}

// newClient returns a service client that holds at most one connection
// open, as a single user's tool would.
func newClient(base string) *service.Client {
	return &service.Client{
		BaseURL:    base,
		HTTPClient: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

// edges follows one /v1/events subscription and hands every job_done edge
// to whoever waits for that job. It does not poll: the result is fetched
// the moment the edge arrives.
type edges struct {
	mu      sync.Mutex
	waiting map[string]chan edge

	cancel context.CancelFunc
	done   chan struct{}
}

// edge is a job's terminal event and when the subscriber received it.
type edge struct {
	state string
	at    time.Time
}

// subscribe opens the subscription on its own connection and returns once
// the server's hello has arrived, so no later edge can be missed.
func subscribe(base string) (*edges, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("/v1/events answered %d", resp.StatusCode)
	}
	e := &edges{waiting: map[string]chan edge{}, cancel: cancel, done: make(chan struct{})}
	dec := stream.NewDecoder(resp.Body)
	if ev, err := dec.Next(); err != nil || ev.Type != stream.TypeHello {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("/v1/events did not start with hello (%v)", err)
	}
	go func() {
		defer close(e.done)
		defer resp.Body.Close()
		for {
			ev, err := dec.Next()
			if err != nil {
				return
			}
			if ev.Type == stream.TypeJobDone {
				// Each job has one terminal edge, so the buffered send
				// never blocks.
				e.slot(ev.Job) <- edge{state: ev.Detail["state"], at: time.Now()}
			}
		}
	}()
	return e, nil
}

// slot returns the channel job id's edge is delivered on.
func (e *edges) slot(id string) chan edge {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.waiting[id]
	if !ok {
		c = make(chan edge, 1)
		e.waiting[id] = c
	}
	return c
}

// wait returns job id's edge, failing if the job did not end done within
// jobTimeout.
func (e *edges) wait(id string) (edge, error) {
	c := e.slot(id)
	defer func() {
		e.mu.Lock()
		delete(e.waiting, id)
		e.mu.Unlock()
	}()
	select {
	case ed := <-c:
		if ed.state != string(service.StateDone) {
			return ed, fmt.Errorf("job %s ended %s", id, ed.state)
		}
		return ed, nil
	case <-time.After(jobTimeout):
		return edge{}, fmt.Errorf("job %s: no job_done edge within %v", id, jobTimeout)
	}
}

// result fetches the result of the job st describes, first waiting for
// its job_done edge if it was queued. notified is when the edge arrived
// (zero for a job born done).
func (e *edges) result(ctx context.Context, c *service.Client, st service.Status) (data []byte, notified time.Time, err error) {
	if !st.State.Terminal() {
		ed, err := e.wait(st.ID)
		if err != nil {
			return nil, time.Time{}, err
		}
		notified = ed.at
	}
	data, err = c.Result(ctx, st.ID)
	return data, notified, err
}

// close ends the subscription and waits for its reader.
func (e *edges) close() {
	if e == nil {
		return
	}
	e.cancel()
	<-e.done
}

// waterfall is a job's server-side spans, from GET /v1/jobs/{id}/trace.
type waterfall map[string][]obs.SpanRecord

func fetchWaterfall(ctx context.Context, c *service.Client, id string) (waterfall, error) {
	data, err := c.JobTrace(ctx, id)
	if err != nil {
		return nil, err
	}
	recs, _, err := obs.DecodeSpanTrace(data)
	if err != nil {
		return nil, err
	}
	w := waterfall{}
	for _, r := range recs {
		w[r.Name] = append(w[r.Name], r)
	}
	return w, nil
}

// end returns when the named span ended.
func (w waterfall) end(name string) (time.Time, error) {
	rs := w[name]
	if len(rs) == 0 {
		return time.Time{}, fmt.Errorf("waterfall lacks a %q span", name)
	}
	return rs[0].Start.Add(rs[0].Dur), nil
}

// total sums the durations of every span with the name.
func (w waterfall) total(name string) time.Duration {
	var d time.Duration
	for _, r := range w[name] {
		d += r.Dur
	}
	return d
}

// path records a traced operation as consecutive stages: each stage runs
// from the previous boundary to its own, so the stages tile the operation
// and every stage's span is its self time.
type path struct {
	tr   *tracer
	req  int
	last time.Time
}

func (p *path) to(layer, name string, at time.Time) {
	d := at.Sub(p.last)
	if d < 0 {
		d = 0
	}
	p.tr.stage(p.req, layer, name, p.last, d)
	if at.After(p.last) {
		p.last = at
	}
}
