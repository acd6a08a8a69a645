package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"demandrace/internal/service"
	"demandrace/internal/trace"
)

func TestJobStreamDeterministic(t *testing.T) {
	a, hotA := genJobStream(3, 500)
	b, hotB := genJobStream(3, 500)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(hotA, hotB) {
		t.Fatal("the same seed generated two different streams")
	}
	if c, _ := genJobStream(4, 500); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds generated the same stream")
	}
}

func TestJobStreamShape(t *testing.T) {
	const n = 1000
	stream, hot := genJobStream(5, n)
	if len(stream) != n {
		t.Fatalf("%d requests, want %d", len(stream), n)
	}
	hotKey := map[string]bool{}
	for _, r := range hot {
		hotKey[r.CacheKey()] = true
	}
	if len(hotKey) > hotKeys {
		t.Fatalf("hot set has %d keys, want at most %d", len(hotKey), hotKeys)
	}
	seen := map[string]bool{}
	hits, perKernel := 0, map[string]int{}
	for _, jr := range stream {
		key := jr.req.CacheKey()
		perKernel[jr.req.Kernel]++
		if jr.hot {
			hits++
			if !hotKey[key] {
				t.Fatalf("hot request %+v is not in the hot set", jr.req)
			}
			continue
		}
		if hotKey[key] || seen[key] {
			t.Fatalf("miss request %+v repeats an earlier request", jr.req)
		}
		seen[key] = true
	}
	if want := n * hotPercent / 100; hits != want {
		t.Errorf("%d hot requests, want %d", hits, want)
	}
	if len(perKernel) != len(suiteKernels()) {
		t.Errorf("stream uses %d kernels, want all %d", len(perKernel), len(suiteKernels()))
	}
}

func TestTraceCorpusDeterministic(t *testing.T) {
	record := func() [][]byte {
		cases, err := genTraceCorpus(11, false)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, c := range cases {
			raw, err := c.record()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, raw)
		}
		return out
	}
	a, b := record(), record()
	if len(a) != len(traceKernels)+lateTraces {
		t.Fatalf("corpus has %d traces, want %d", len(a), len(traceKernels)+lateTraces)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("trace %d differs between two recordings from the same seed", i)
		}
	}
}

// TestLateTraces: every late-thread trace makes a live replay rebuild its
// detector at least 12 times, and the node seals the same result for it
// streamed as uploaded in one piece.
func TestLateTraces(t *testing.T) {
	cases, err := genTraceCorpus(13, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.NewServer(service.Config{Workers: 1, CacheEntries: -1})
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Shutdown(context.Background())
	}()
	w := &ingestWorkload{client: newClient(hs.URL)}
	if w.events, err = subscribe(hs.URL); err != nil {
		t.Fatal(err)
	}
	defer w.events.close()
	ctx := context.Background()
	late := 0
	for _, c := range cases {
		if !c.late {
			continue
		}
		late++
		raw, err := c.record()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.DecodeBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		l := trace.NewLiveReplay(replayOptions)
		for _, e := range tr.Events {
			l.Apply(e)
		}
		if l.Rebuilds() < 12 {
			t.Errorf("%s: %d live-replay rebuilds, want at least 12", c.name, l.Rebuilds())
		}
		batch, _, err := w.batch(ctx, raw)
		if err != nil {
			t.Fatal(err)
		}
		streamed, _, err := w.stream(ctx, raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch, streamed) {
			t.Errorf("%s: streamed result differs from the one-shot result", c.name)
		}
	}
	if late != lateTraces {
		t.Fatalf("corpus has %d late-thread traces, want %d", late, lateTraces)
	}
}
