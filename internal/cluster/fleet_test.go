package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"demandrace/internal/demand"
	"demandrace/internal/obs"
	"demandrace/internal/runner"
	"demandrace/internal/service"
	"demandrace/internal/tenant"
	"demandrace/internal/trace"
	"demandrace/internal/workloads"
)

// Fault kinds the fleet harness injects into forwarded client requests.
const (
	faultDrop  = iota // transport error before the request is sent
	fault503          // synthetic 503 from the "backend"
	faultCut          // real response whose body breaks mid-read
	faultDelay        // real response after a 0–20 ms pause
	faultKinds
)

// faultTransport is the gateway's upstream transport in TestFleetUnderFaults.
// Only forwarded client requests (/v1/jobs…, /v1/results/…) are faulted;
// health probes, event tails and /v1/cache replication pass through clean,
// so the test's verdict depends on the gateway's handling of faults, not on
// whether a probe or a tail happened to lose a race. One-shot trace
// uploads only ever get delays: a failover would move them off their ring
// owner, and the owner is what the routing invariant checks.
type faultTransport struct {
	base http.RoundTripper

	mu     sync.Mutex
	rng    *rand.Rand
	forced bool // the first faultable POST always drops
	counts [faultKinds]int
}

func newFaultTransport(seed int64) *faultTransport {
	return &faultTransport{
		base: http.DefaultTransport.(*http.Transport).Clone(),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := req.URL.Path
	if !strings.HasPrefix(p, "/v1/jobs") && !strings.HasPrefix(p, "/v1/results/") {
		return f.base.RoundTrip(req)
	}
	traceUpload := req.Header.Get("Content-Type") == service.TraceContentType
	f.mu.Lock()
	roll := f.rng.Intn(100)
	delay := time.Duration(f.rng.Intn(21)) * time.Millisecond
	if !f.forced && req.Method == http.MethodPost && !traceUpload {
		// Guarantees at least one submission failover per run.
		f.forced = true
		roll = 0
	}
	kind := -1
	switch {
	case traceUpload:
		if roll < 30 {
			kind = faultDelay
		}
	case roll < 5:
		kind = faultDrop
	case roll < 10:
		kind = fault503
	case roll < 15:
		kind = faultCut
	case roll < 30:
		kind = faultDelay
	}
	if kind >= 0 {
		f.counts[kind]++
	}
	f.mu.Unlock()

	switch kind {
	case faultDrop:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("injected: connection reset before send")
	case fault503:
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"injected: overloaded"}` + "\n")),
			Request:    req,
		}, nil
	case faultDelay:
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil || kind != faultCut {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(data[:len(data)/2]),
		errReader{io.ErrUnexpectedEOF}))
	resp.ContentLength = -1
	return resp, nil
}

func (f *faultTransport) injected() [faultKinds]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// recordKernelTrace encodes a continuous-analysis run of one bundled kernel.
func recordKernelTrace(t *testing.T, kernel string) []byte {
	t.Helper()
	k, ok := workloads.ByName(kernel)
	if !ok {
		t.Fatalf("no kernel %q", kernel)
	}
	p := k.Build(workloads.Config{Threads: 4, Scale: 1})
	cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
	rec := trace.NewRecorder(p.Name)
	cfg.Tracer = rec
	if _, err := runner.Run(p, cfg); err != nil {
		t.Fatalf("recording %s: %v", kernel, err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fleetJob is one submission the gateway accepted with a 2xx.
type fleetJob struct {
	id  string
	key string
	// submit sends the same input to the standalone reference node.
	submit func() (service.Status, error)
	want   []byte // the reference node's result bytes
}

// TestFleetUnderFaults drives a three-node, two-replica fleet behind ddgate
// through a seeded fault-injecting transport and checks the fleet's
// headline claims as invariants:
//
//  1. every 2xx submission reaches done with result bytes equal to a
//     standalone node's bytes for the same input;
//  2. every one-shot trace upload lands on the ring owner of its
//     TraceCacheKey, i.e. the gateway and the backend parse the same
//     replay options;
//  3. no job ID the gateway handed out answers 404 later, even after the
//     owner of a sealed, replicated job is gone;
//  4. the throttled tenant's 429s name it and carry a Retry-After, the
//     other tenant is never throttled, and a keyless submit is a 401;
//  5. the injected faults forced at least one failover retry.
func TestFleetUnderFaults(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	ref := service.NewServer(service.Config{Workers: 2})
	ref.Start()
	t.Cleanup(func() { ref.Shutdown(context.Background()) })
	reference := func(submit func() (service.Status, error)) []byte {
		t.Helper()
		st, err := submit()
		if err != nil {
			t.Fatalf("reference submit: %v", err)
		}
		if st, err = ref.Wait(ctx, st.ID); err != nil || st.State != service.StateDone {
			t.Fatalf("reference job %s: state %s, err %v", st.ID, st.State, err)
		}
		data, _, err := ref.Result(st.ID)
		if err != nil {
			t.Fatalf("reference result: %v", err)
		}
		return data
	}

	backends := make([]Backend, 3)
	servers := make(map[string]*httptest.Server, 3)
	for i := range backends {
		_, ts := startBackend(t)
		name := fmt.Sprintf("b%d", i+1)
		backends[i] = Backend{Name: name, URL: ts.URL}
		servers[name] = ts
	}
	ft := newFaultTransport(16)
	t.Cleanup(ft.base.(*http.Transport).CloseIdleConnections)
	g, gc := newGateway(t, Config{
		Backends:   backends,
		Replicas:   2,
		HTTPClient: &http.Client{Transport: ft},
		Tenants: []tenant.Config{
			{Key: "heavy-key", Name: "heavy", Weight: 1, Rate: 0.02, Burst: 2},
			{Key: "light-key", Name: "light", Weight: 3, Rate: 1000, Burst: 1000},
		},
	})
	g.Start()

	client := func(key string, retries int) *service.Client {
		return &service.Client{
			BaseURL:      gc.BaseURL,
			APIKey:       key,
			PollInterval: 2 * time.Millisecond,
			Options:      service.Options{Retries: retries, Backoff: time.Millisecond},
		}
	}
	light := client("light-key", 8)
	// The throttled tenant must not retry: the client would sleep out each
	// 429's Retry-After (50 s at this refill rate).
	heavy := client("heavy-key", 0)

	var (
		mu       sync.Mutex
		accepted []fleetJob
	)
	accept := func(st service.Status, key string, submit func() (service.Status, error)) {
		mu.Lock()
		accepted = append(accepted, fleetJob{id: st.ID, key: key, submit: submit})
		mu.Unlock()
	}
	acceptKernel := func(st service.Status, req service.Request) {
		accept(st, req.CacheKey(), func() (service.Status, error) { return ref.Submit(ctx, req) })
	}

	// Light load: three submitters over distinct seeds, each resubmitting
	// its first request once so born-done cache hits are in the mix.
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kernels := []string{"racy_flag", "racy_counter"}
			for i := 0; i < 6; i++ {
				req := service.Request{Kernel: kernels[i%2], Seed: int64(10*w + i)}
				st, err := light.Submit(ctx, req)
				if err != nil {
					errc <- fmt.Errorf("light submit %+v: %w", req, err)
					continue
				}
				acceptKernel(st, req)
				if i == 0 {
					if st, err = light.Submit(ctx, req); err == nil {
						acceptKernel(st, req)
					} else {
						errc <- fmt.Errorf("light resubmit %+v: %w", req, err)
					}
				}
			}
		}(w)
	}

	// One-shot trace uploads with non-default replay options.
	opts := service.TraceOptions{FullVC: true, MaxReports: -1}
	type upload struct {
		raw []byte
		st  service.Status
	}
	var uploads []upload
	for _, k := range []string{"racy_counter", "racy_flag", "histogram"} {
		raw := recordKernelTrace(t, k)
		st, err := light.SubmitTrace(ctx, bytes.NewReader(raw), opts)
		if err != nil {
			t.Fatalf("trace upload %s: %v", k, err)
		}
		uploads = append(uploads, upload{raw, st})
		accept(st, service.TraceCacheKey(raw, opts), func() (service.Status, error) {
			return ref.SubmitTrace(ctx, bytes.NewReader(raw), opts)
		})
	}

	// Heavy load: a burst of two, then the edge throttles.
	var throttled []*service.APIError
	for seed := int64(100); seed < 104; seed++ {
		req := service.Request{Kernel: "racy_flag", Seed: seed}
		st, err := heavy.Submit(ctx, req)
		var ae *service.APIError
		switch {
		case err == nil:
			acceptKernel(st, req)
		case errors.As(err, &ae) && ae.Code == http.StatusTooManyRequests:
			throttled = append(throttled, ae)
		default:
			t.Logf("heavy submit seed %d: %v", seed, err)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		var ae *service.APIError
		if errors.As(err, &ae) && ae.Code == http.StatusTooManyRequests {
			t.Errorf("light tenant throttled: %v", err)
		}
		t.Logf("%v", err)
	}

	// Invariant 4: tenancy at the edge.
	if len(throttled) == 0 {
		t.Fatal("heavy tenant was never throttled")
	}
	for _, ae := range throttled {
		if ae.Tenant != "heavy" || ae.RetryAfter < 1 {
			t.Errorf("heavy 429: tenant %q, Retry-After %d; want heavy, >= 1", ae.Tenant, ae.RetryAfter)
		}
	}
	for _, ts := range g.Tenants().StatsSnapshot() {
		if ts.Name == "light" && ts.Throttled != 0 {
			t.Errorf("light throttled %d times", ts.Throttled)
		}
	}
	_, err := client("", 8).Submit(ctx, service.Request{Kernel: "racy_flag"})
	var ae *service.APIError
	if !errors.As(err, &ae) || ae.Code != http.StatusUnauthorized {
		t.Errorf("keyless submit: %v, want 401", err)
	}

	// Invariant 2: trace uploads land on their content owner.
	for _, u := range uploads {
		name, _, _ := splitJobID(u.st.ID)
		if owner := g.Ring().Owner(service.TraceCacheKey(u.raw, opts)); name != owner {
			t.Errorf("trace job %s landed on %s, ring owner is %s", u.st.ID, name, owner)
		}
	}

	// Invariant 1: every accepted job is done, with the reference bytes.
	byKey := make(map[string][]byte)
	if len(accepted) < 20 {
		t.Fatalf("only %d submissions accepted", len(accepted))
	}
	for i := range accepted {
		j := &accepted[i]
		st, err := light.Wait(ctx, j.id)
		if err != nil || st.State != service.StateDone {
			t.Fatalf("job %s: state %q, err %v", j.id, st.State, err)
		}
		got, err := light.Result(ctx, j.id)
		if err != nil {
			t.Fatalf("result %s: %v", j.id, err)
		}
		want, ok := byKey[j.key]
		if !ok {
			want = reference(j.submit)
			byKey[j.key] = want
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s: result through the faulty fleet differs from the reference", j.id)
		}
		j.want = want
	}

	// Invariant 3: close the owner of a sealed, replicated job; its result
	// still answers with the same bytes, and no handed-out ID is a 404.
	var victim *fleetJob
	deadline := time.Now().Add(10 * time.Second)
	for victim == nil && time.Now().Before(deadline) {
		for i := range accepted {
			owner, _, _ := splitJobID(accepted[i].id)
			for _, h := range g.Replication().Holders(accepted[i].key) {
				if h != owner {
					victim = &accepted[i]
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if victim == nil {
		t.Fatal("no accepted job was ever replicated off its owner")
	}
	owner, _, _ := splitJobID(victim.id)
	dead := servers[owner]
	dead.Listener.Close()
	dead.CloseClientConnections()
	dead.Close()
	got, err := light.Result(ctx, victim.id)
	if err != nil {
		t.Fatalf("result of %s after its owner closed: %v", victim.id, err)
	}
	if !bytes.Equal(got, victim.want) {
		t.Fatalf("repaired result of %s differs from the original", victim.id)
	}
	for _, j := range accepted {
		_, serr := light.Status(ctx, j.id)
		_, rerr := light.Result(ctx, j.id)
		for _, err := range []error{serr, rerr} {
			var ae *service.APIError
			if errors.As(err, &ae) && ae.Code == http.StatusNotFound {
				t.Errorf("job %s answers 404: %v", j.id, err)
			}
		}
	}

	// Invariant 5: the faults forced the failover path.
	if n := g.reg.CounterValue(obs.GateRetries); n < 1 {
		t.Errorf("ddgate_retries_total = %d, want >= 1", n)
	}
	counts := ft.injected()
	t.Logf("injected faults: drop %d, 503 %d, cut %d, delay %d (accepted %d jobs)",
		counts[faultDrop], counts[fault503], counts[faultCut], counts[faultDelay], len(accepted))
	if counts[faultDrop] < 1 {
		t.Error("no transport fault was injected")
	}
}
