package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"demandrace/internal/detector"
	"demandrace/internal/obs"
	"demandrace/internal/service"
	"demandrace/internal/trace"
)

// chunkBytes is the streamed upload's chunk size.
const chunkBytes = 64 << 10

// ingestRate paces the client, in traces per second (each uploaded twice).
// A phase uploads the whole corpus a whole number of times, so every seed
// sends the same traces. The node keeps every one-shot upload's decoded
// trace for as long as it keeps the job, so a fixed set of uploads per
// phase is also what keeps the heap comparable between runs and bounded.
const ingestRate = 3

// ingestWorkload uploads recorded traces to one ddserved node from one
// client on one connection, paced at ingestRate traces per second: each
// trace is uploaded one-shot and then streamed in chunks, and every
// operation (one upload) runs from its start to the sealed result in hand.
// The result cache is off, so every upload does the full work.
type ingestWorkload struct {
	cases  []traceCase
	raws   [][]byte
	rng    *rand.Rand
	order  []int
	refs   map[int][]byte // in-process results, by corpus index
	node   *service.Server
	ln     *listener
	client *service.Client
	events *edges

	pairs []ingestPair // since the last verify
	// bytes and time of every upload since set-up, by kind.
	sums map[string]*rate
}

// ingestPair is one trace's two sealed results, kept for verification.
type ingestPair struct {
	idx           int
	batch, stream []byte
}

// rate sums the bytes and the time of a kind of upload.
type rate struct {
	bytes int
	time  time.Duration
}

func (w *ingestWorkload) setUp(o options) error {
	cases, err := genTraceCorpus(o.seed, o.short)
	if err != nil {
		return err
	}
	w.cases, w.raws = cases, nil
	for _, c := range cases {
		raw, err := c.record()
		if err != nil {
			return err
		}
		w.raws = append(w.raws, raw)
	}
	w.rng = rand.New(rand.NewSource(o.seed))
	w.order, w.pairs, w.refs = nil, nil, map[int][]byte{}
	w.sums = map[string]*rate{"batch": {}, "stream": {}, "late_stream": {}}

	// A committed streaming session keeps its events until the idle sweep
	// drops it; a short idle window keeps that from piling up over a run.
	w.node = service.NewServer(service.Config{Workers: 2, CacheEntries: -1, IngestIdle: time.Second})
	w.node.Start()
	if w.ln, err = listen(w.node.Handler()); err != nil {
		return err
	}
	w.client = newClient(w.ln.url)
	if w.events, err = subscribe(w.ln.url); err != nil {
		return err
	}
	ctx := context.Background()
	if _, _, err := w.batch(ctx, w.raws[0]); err != nil {
		return fmt.Errorf("warm-up upload: %w", err)
	}
	if _, _, err := w.stream(ctx, w.raws[0]); err != nil {
		return fmt.Errorf("warm-up stream: %w", err)
	}
	return nil
}

func (w *ingestWorkload) tearDown() {
	w.events.close()
	w.events = nil
	if w.client != nil {
		w.client.HTTPClient.CloseIdleConnections()
	}
	w.ln.close()
	w.ln = nil
	if w.node != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.node.Shutdown(ctx) // past the deadline Shutdown cancels the jobs and still waits for the workers
		cancel()
		w.node = nil
	}
}

// batchTimes are the client-side boundaries of a one-shot upload.
type batchTimes struct {
	id                  string
	submitted, notified time.Time
}

// batch uploads raw in one request and returns the sealed result.
func (w *ingestWorkload) batch(ctx context.Context, raw []byte) ([]byte, batchTimes, error) {
	st, err := w.client.SubmitTrace(ctx, bytes.NewReader(raw), service.TraceOptions{})
	bt := batchTimes{id: st.ID, submitted: time.Now()}
	if err != nil {
		return nil, bt, err
	}
	data, notified, err := w.events.result(ctx, w.client, st)
	bt.notified = notified
	return data, bt, err
}

// streamTimes are the client-side boundaries of a streamed upload.
type streamTimes struct {
	opened, sent, committed time.Time
}

// stream uploads raw in chunkBytes chunks through a session, commits, and
// returns the sealed result.
func (w *ingestWorkload) stream(ctx context.Context, raw []byte) ([]byte, streamTimes, error) {
	var t streamTimes
	ts, err := w.client.OpenTrace(ctx, service.TraceOptions{})
	t.opened = time.Now()
	if err != nil {
		return nil, t, err
	}
	for seq, off := uint64(0), 0; off < len(raw); seq, off = seq+1, off+chunkBytes {
		if _, err := w.client.PutChunk(ctx, ts.Session, seq, raw[off:min(off+chunkBytes, len(raw))]); err != nil {
			return nil, t, err
		}
	}
	t.sent = time.Now()
	st, err := w.client.CommitTrace(ctx, ts.Session)
	t.committed = time.Now()
	if err != nil {
		return nil, t, err
	}
	data, err := w.client.Result(ctx, st.ID)
	return data, t, err
}

func (w *ingestWorkload) measure(deadline time.Time, m *meter, tr *tracer) {
	ctx := context.Background()
	start := time.Now()
	span := deadline.Sub(start)
	cycles := max(1, int(math.Round(span.Seconds()*ingestRate/float64(len(w.raws)))))
	pairs := cycles * len(w.raws)
	for pair := 0; pair < pairs; pair++ {
		due := start.Add(span * time.Duration(pair) / time.Duration(pairs))
		time.Sleep(time.Until(due))
		if len(w.order) == 0 {
			w.order = w.rng.Perm(len(w.raws))
		}
		idx := w.order[0]
		w.order = w.order[1:]
		raw := w.raws[idx]

		begin := time.Now()
		batch, bt, err := w.batch(ctx, raw)
		end := time.Now()
		if err == nil && tr != nil {
			err = w.traceBatch(ctx, tr, 2*pair, due, begin, end, bt)
		}
		m.done(begin.Sub(due), end.Sub(begin), err)
		w.sums["batch"].add(len(raw), end.Sub(begin))

		// The streamed upload of the same trace is due as soon as the
		// one-shot upload (and its tracing) is done.
		due = time.Now()
		begin = due
		streamed, st, serr := w.stream(ctx, raw)
		end = time.Now()
		if serr == nil && tr != nil {
			p := &path{tr: tr, req: 2*pair + 1, last: begin}
			p.to("ingest", "session", st.opened)
			p.to("ingest", "chunk_put", st.sent)
			p.to("ingest", "session", st.committed)
			p.to("service", "fetch", end)
			tr.op(2*pair+1, begin, end)
		}
		m.done(0, end.Sub(begin), serr)
		kind := "stream"
		if w.cases[idx].late {
			kind = "late_stream"
		}
		w.sums[kind].add(len(raw), end.Sub(begin))
		if err == nil && serr == nil {
			w.pairs = append(w.pairs, ingestPair{idx: idx, batch: batch, stream: streamed})
		}
	}
}

// traceBatch records the stages of one traced one-shot upload.
func (w *ingestWorkload) traceBatch(ctx context.Context, tr *tracer, req int, due, start, end time.Time, bt batchTimes) error {
	wf, err := fetchWaterfall(ctx, w.client, bt.id)
	if err != nil {
		return fmt.Errorf("upload %s waterfall: %w", bt.id, err)
	}
	stages := []string{"queue_wait", "analysis", "render"}
	ends := make([]time.Time, len(stages))
	for i, stage := range stages {
		if ends[i], err = wf.end(stage); err != nil {
			return fmt.Errorf("upload %s: %w", bt.id, err)
		}
	}
	p := &path{tr: tr, req: req, last: due}
	p.to("bench", "gen_late", start)
	decode := wf.total("trace_decode")
	p.to("service", "submit", bt.submitted.Add(-decode))
	p.to("service", "trace_decode", bt.submitted)
	for i, stage := range stages {
		p.to("service", stage, ends[i])
	}
	p.to("service", "notify", bt.notified)
	p.to("service", "fetch", end)
	tr.op(req, due, end)
	return nil
}

func (r *rate) add(n int, d time.Duration) {
	r.bytes += n
	r.time += d
}

func (r *rate) mbPerSecond() float64 {
	if r.time <= 0 {
		return 0
	}
	return float64(r.bytes) / (1 << 20) / r.time.Seconds()
}

// verify checks that every trace's streamed result equals its one-shot
// result, and one one-shot result in sixteen against an in-process replay.
func (w *ingestWorkload) verify() int {
	bad := 0
	for i, p := range w.pairs {
		if !bytes.Equal(p.batch, p.stream) {
			bad++
			continue
		}
		if i%16 != 0 {
			continue
		}
		want, err := w.reference(p.idx)
		if err != nil || !bytes.Equal(p.batch, want) {
			bad++
		}
	}
	w.pairs = nil
	return bad
}

// reference replays corpus trace idx in-process and renders the result
// document the service serves for it.
func (w *ingestWorkload) reference(idx int) ([]byte, error) {
	if ref, ok := w.refs[idx]; ok {
		return ref, nil
	}
	tr, err := trace.DecodeBinary(bytes.NewReader(w.raws[idx]))
	if err != nil {
		return nil, err
	}
	det := trace.Replay(tr, replayOptions)
	s := trace.Summarize(tr)
	ref, err := json.Marshal(service.ReplayResult{
		Program: s.Program, Events: s.Events, Threads: s.Threads, HITM: s.HITM, Analyzed: s.Analyzed,
		Races: det.Reports(), Stats: det.Stats(),
	})
	if err != nil {
		return nil, err
	}
	w.refs[idx] = ref
	return ref, nil
}

// replayOptions are the detector options of an upload with default
// options (one report per address).
var replayOptions = detector.Options{MaxReportsPerAddr: 1}

func (w *ingestWorkload) corpus() []ladderCase {
	var cases []ladderCase
	for _, c := range w.cases {
		cases = append(cases, c.ladderCase)
	}
	return cases
}

func (w *ingestWorkload) counts(put func(string, float64)) {
	put("service.rejects", float64(w.node.Registry().CounterValue(obs.SvcJobsRejected)))
	put("ingest.batch_mb_s", w.sums["batch"].mbPerSecond())
	put("ingest.stream_mb_s", w.sums["stream"].mbPerSecond())
	put("ingest.late_stream_mb_s", w.sums["late_stream"].mbPerSecond())
}
