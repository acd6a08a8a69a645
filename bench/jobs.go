package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"demandrace/internal/cluster"
	"demandrace/internal/obs"
	"demandrace/internal/runner"
	"demandrace/internal/service"
)

// jobRate is the open-loop arrival rate, in jobs per second. At this rate
// a two-worker node is roughly a fifth busy, so latency reflects the work
// of a job rather than a queue that grows.
const jobRate = 100

// traceEvery is how often the traced phase fetches a job's waterfall: one
// job in traceEvery is traced.
const traceEvery = 8

// jobsWorkload sends an open-loop stream of kernel-analysis jobs to one
// ddserved node with two workers (node-jobs), or through ddgate to two
// one-worker nodes replicating each result twice (fleet-jobs). Each job is
// submitted, its job_done edge taken from the event stream, and its result
// fetched; an operation lasts from the job's due time to the result in
// hand.
type jobsWorkload struct {
	fleet bool
	o     options

	stream []jobRequest
	hotRef map[string][]byte

	nodes     []*service.Server
	listeners []*listener // the nodes'
	gate      *cluster.Gateway
	gateLn    *listener
	gateHTTP  *http.Client
	client    *service.Client
	events    *edges

	mu        sync.Mutex
	done      []jobDone // since the last verify
	hits      int
	submitted int
	perNode   map[string]int
}

// jobDone is one finished job, kept for verification.
type jobDone struct {
	jr   jobRequest
	pos  int // stream position
	data []byte
}

func (w *jobsWorkload) setUp(o options) error {
	w.o = o
	var hot []service.Request
	w.stream, hot = genJobStream(o.seed, max(1, int(o.seconds.Seconds()*jobRate)))
	w.done, w.hits, w.submitted, w.perNode = nil, 0, 0, map[string]int{}

	base, err := w.startSystem()
	if err != nil {
		return err
	}
	w.client = newClient(base)
	if w.events, err = subscribe(base); err != nil {
		return err
	}
	// Warm the hot set, so that in the measured phases a hot request is a
	// cache hit and every other request a miss.
	w.hotRef = map[string][]byte{}
	ctx := context.Background()
	for _, r := range hot {
		st, err := w.client.Submit(ctx, r)
		if err == nil {
			w.hotRef[r.CacheKey()], _, err = w.events.result(ctx, w.client, st)
		}
		if err != nil {
			return fmt.Errorf("warming the hot set: %w", err)
		}
	}
	return nil
}

// startSystem starts the node or the fleet and returns the URL clients use.
func (w *jobsWorkload) startSystem() (string, error) {
	if !w.fleet {
		return w.startNode(2)
	}
	var backends []cluster.Backend
	for i := 0; i < 2; i++ {
		url, err := w.startNode(1)
		if err != nil {
			return "", err
		}
		backends = append(backends, cluster.Backend{Name: fmt.Sprintf("b%d", i+1), URL: url})
	}
	w.gateHTTP = &http.Client{Transport: &http.Transport{}}
	g, err := cluster.NewGateway(cluster.Config{Backends: backends, Replicas: 2, HTTPClient: w.gateHTTP})
	if err != nil {
		return "", err
	}
	w.gate = g
	g.Start()
	// The gateway relays job_done edges from its tail of each backend's
	// event stream; wait until every tail is connected.
	for _, n := range w.nodes {
		for deadline := time.Now().Add(5 * time.Second); n.Events().Subscribers() == 0; {
			if time.Now().After(deadline) {
				return "", fmt.Errorf("gateway did not subscribe to a backend's events")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if w.gateLn, err = listen(g.Handler()); err != nil {
		return "", err
	}
	return w.gateLn.url, nil
}

func (w *jobsWorkload) startNode(workers int) (string, error) {
	s := service.NewServer(service.Config{Workers: workers})
	s.Start()
	w.nodes = append(w.nodes, s)
	l, err := listen(s.Handler())
	if err != nil {
		return "", err
	}
	w.listeners = append(w.listeners, l)
	return l.url, nil
}

func (w *jobsWorkload) tearDown() {
	w.events.close()
	w.events = nil
	if w.client != nil {
		w.client.HTTPClient.CloseIdleConnections()
	}
	// The gateway goes first, so nothing is forwarded to a closed node.
	w.gateLn.close()
	w.gateLn = nil
	if w.gate != nil {
		w.gate.Stop()
		w.gateHTTP.CloseIdleConnections()
		w.gate = nil
	}
	for _, l := range w.listeners {
		l.close()
	}
	w.listeners = nil
	for _, s := range w.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.Shutdown(ctx) // past the deadline Shutdown cancels the jobs and still waits for the workers
		cancel()
	}
	w.nodes = nil
}

func (w *jobsWorkload) measure(deadline time.Time, m *meter, tr *tracer) {
	start := time.Now()
	interval := time.Second / jobRate
	n := min(int(deadline.Sub(start)/interval), len(w.stream))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.do(i, due, m, tr)
		}()
	}
	wg.Wait()
}

// do runs the job at stream position pos, due at due.
func (w *jobsWorkload) do(pos int, due time.Time, m *meter, tr *tracer) {
	jr := w.stream[pos]
	ctx := context.Background()
	sent := time.Now()
	st, err := w.client.Submit(ctx, jr.req)
	submitted := time.Now()
	var data []byte
	var notified time.Time
	if err == nil {
		data, notified, err = w.events.result(ctx, w.client, st)
	}
	end := time.Now()
	if err == nil && tr != nil && pos%traceEvery == 0 {
		err = w.trace(ctx, tr, pos, st, due, sent, submitted, notified, end)
	}
	m.done(sent.Sub(due), end.Sub(due), err)
	if err != nil {
		return
	}
	node := "node"
	if w.fleet {
		node, _, _ = strings.Cut(st.ID, ":")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done = append(w.done, jobDone{jr: jr, pos: pos, data: data})
	w.submitted++
	if st.CacheHit {
		w.hits++
	}
	w.perNode[node]++
}

// trace records the stages of one finished job, taking the server-side
// ones from the job's waterfall.
func (w *jobsWorkload) trace(ctx context.Context, tr *tracer, pos int, st service.Status, due, sent, submitted, notified, end time.Time) error {
	p := &path{tr: tr, req: pos, last: due}
	if st.CacheHit {
		p.to("bench", "gen_late", sent)
		p.to("service", "submit", submitted)
		p.to("service", "fetch", end)
		tr.op(pos, due, end)
		return nil
	}
	wf, err := fetchWaterfall(ctx, w.client, st.ID)
	if err != nil {
		return fmt.Errorf("job %s waterfall: %w", st.ID, err)
	}
	stages := []string{"queue_wait", "analysis", "render"}
	ends := make([]time.Time, len(stages))
	for i, stage := range stages {
		if ends[i], err = wf.end(stage); err != nil {
			return fmt.Errorf("job %s: %w", st.ID, err)
		}
	}
	p.to("bench", "gen_late", sent)
	if w.fleet {
		// The gateway's forward spans cover the backend round trip; the
		// rest of the submit round trip is the gateway's own.
		p.to("cluster", "submit_overhead", submitted.Add(-wf.total("forward")))
	}
	p.to("service", "submit", submitted)
	for i, stage := range stages {
		p.to("service", stage, ends[i])
	}
	p.to("service", "notify", notified)
	p.to("service", "fetch", end)
	tr.op(pos, due, end)
	return nil
}

// verify checks every hot result against the warm-up's bytes for the same
// request, and one distinct result in sixteen against runner.Run in this
// process. Both tiers are held to the same in-process reference, which is
// what makes fleet results byte-equal to node results.
func (w *jobsWorkload) verify() int {
	w.mu.Lock()
	done := w.done
	w.done = nil
	w.mu.Unlock()
	bad := 0
	for _, d := range done {
		if d.jr.hot {
			if !bytes.Equal(d.data, w.hotRef[d.jr.req.CacheKey()]) {
				bad++
			}
			continue
		}
		if d.pos%16 != 0 {
			continue
		}
		want, err := referenceJob(d.jr.req)
		if err != nil || !bytes.Equal(d.data, want) {
			bad++
		}
	}
	return bad
}

// referenceJob computes request r's result in-process.
func referenceJob(r service.Request) ([]byte, error) {
	c, err := jobCase(r)
	if err != nil {
		return nil, err
	}
	rep, err := runner.Run(c.build(), c.cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// corpus is one job per kernel, as the stream sends them.
func (w *jobsWorkload) corpus() []ladderCase {
	seen := map[string]bool{}
	var cases []ladderCase
	for _, jr := range w.stream {
		if jr.hot || seen[jr.req.Kernel] {
			continue
		}
		seen[jr.req.Kernel] = true
		c, err := jobCase(jr.req)
		if err != nil {
			continue
		}
		cases = append(cases, c)
		if w.o.short && len(cases) == 2 {
			break
		}
	}
	return cases
}

func (w *jobsWorkload) counts(put func(string, float64)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	put("service.cache_hit_ratio", float64(w.hits)/float64(max(w.submitted, 1)))
	var rejects uint64
	for _, s := range w.nodes {
		rejects += s.Registry().CounterValue(obs.SvcJobsRejected)
	}
	put("service.rejects", float64(rejects))
	most, sum := 0, 0
	for _, n := range w.perNode {
		most = max(most, n)
		sum += n
	}
	if sum > 0 {
		put("cluster.ring_imbalance", float64(most)/(float64(sum)/float64(len(w.nodes))))
	}
	if w.gate != nil {
		put("replica.copies", float64(w.gate.Config().Registry.CounterValue(obs.ReplicaWrites)))
		put("replica.pending_at_end", float64(w.gate.Replication().StatsSnapshot().Queue))
	}
}
