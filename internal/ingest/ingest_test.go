package ingest_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/ingest"
	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
	"demandrace/internal/program"
	"demandrace/internal/runner"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
	"demandrace/internal/workloads"
)

// racyTrace builds a small trace with one guaranteed write-read race and a
// barrier, then returns it with its binary encoding.
func racyTrace(t *testing.T) (*trace.Trace, []byte) {
	t.Helper()
	rec := trace.NewRecorder("ingest-test")
	rec.RecordMark(0, 0, "phase:init")
	rec.RecordOp(0, 0, program.Op{Kind: program.OpStore, Addr: 64}, true, true)
	rec.RecordOp(1, 1, program.Op{Kind: program.OpLoad, Addr: 64}, true, true)
	rec.RecordBarrier(0, []vclock.TID{0, 1}, true)
	rec.RecordOp(1, 0, program.Op{Kind: program.OpStore, Addr: 128}, false, true)
	tr := rec.Trace()
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// chunksOf splits raw into size-byte chunks.
func chunksOf(raw []byte, size int) [][]byte {
	var out [][]byte
	for off := 0; off < len(raw); off += size {
		end := off + size
		if end > len(raw) {
			end = len(raw)
		}
		out = append(out, raw[off:end])
	}
	return out
}

func newManager(t *testing.T, cfg ingest.Config) *ingest.Manager {
	t.Helper()
	m := ingest.NewManager(cfg)
	t.Cleanup(m.Stop)
	return m
}

// streamIn pushes every chunk through the session in order.
func streamIn(t *testing.T, m *ingest.Manager, id string, chunks [][]byte) ingest.Ack {
	t.Helper()
	var ack ingest.Ack
	for i, c := range chunks {
		crc := ingest.Checksum(c)
		var err error
		ack, err = m.Append(id, uint64(i), c, &crc)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	return ack
}

func TestStreamedCommitMatchesBatch(t *testing.T) {
	tr, raw := racyTrace(t)
	opt := detector.Options{MaxReportsPerAddr: 1}
	want := trace.Replay(tr, opt)

	for _, size := range []int{1, 5, len(raw)} {
		m := newManager(t, ingest.Config{})
		st, err := m.Open(ingest.OpenOptions{Detector: opt, Hash: sha256.New()})
		if err != nil {
			t.Fatal(err)
		}
		ack := streamIn(t, m, st.Session, chunksOf(raw, size))
		if ack.Events != uint64(len(tr.Events)) {
			t.Fatalf("size %d: acked %d events, trace has %d", size, ack.Events, len(tr.Events))
		}
		com, err := m.Commit(st.Session)
		if err != nil {
			t.Fatal(err)
		}
		if com.JobID != "" {
			t.Fatalf("fresh commit carried a job ID %q", com.JobID)
		}
		if !reflect.DeepEqual(com.Detector.Reports(), want.Reports()) {
			t.Fatalf("size %d: streamed reports differ from batch replay", size)
		}
		if com.Detector.Stats() != want.Stats() {
			t.Fatalf("size %d: streamed stats %+v, batch %+v", size, com.Detector.Stats(), want.Stats())
		}
		if want := trace.Summarize(tr); !reflect.DeepEqual(com.Summary, want) {
			t.Fatalf("size %d: summary %+v, want %+v", size, com.Summary, want)
		}
		wantKey := fmt.Sprintf("%x", sha256.Sum256(raw))
		if com.Key != wantKey {
			t.Fatalf("key %s, want %s", com.Key, wantKey)
		}
	}
}

func TestDuplicateChunkIsIdempotent(t *testing.T) {
	_, raw := racyTrace(t)
	m := newManager(t, ingest.Config{})
	st, _ := m.Open(ingest.OpenOptions{})
	chunks := chunksOf(raw, 7)
	streamIn(t, m, st.Session, chunks)

	before, err := m.Status(st.Session)
	if err != nil {
		t.Fatal(err)
	}
	// Replay an old chunk: same payload must ack as duplicate without
	// changing anything.
	crc := ingest.Checksum(chunks[1])
	ack, err := m.Append(st.Session, 1, chunks[1], &crc)
	if err != nil {
		t.Fatalf("duplicate rejected: %v", err)
	}
	if !ack.Duplicate {
		t.Fatal("duplicate not flagged")
	}
	if ack.HighWater != uint64(len(chunks)) || ack.Events != before.Events || ack.Bytes != before.Bytes {
		t.Fatalf("duplicate mutated session: ack %+v, status before %+v", ack, before)
	}
	// A *different* payload under an old seq is corruption, not a retry.
	bogus := append([]byte(nil), chunks[1]...)
	bogus[0] ^= 0xFF
	bcrc := ingest.Checksum(bogus)
	var ce *ingest.CRCError
	if _, err := m.Append(st.Session, 1, bogus, &bcrc); !errors.As(err, &ce) {
		t.Fatalf("want CRCError for divergent duplicate, got %v", err)
	}
	// Session still healthy.
	if _, err := m.Commit(st.Session); err != nil {
		t.Fatalf("commit after duplicate handling: %v", err)
	}
}

func TestChunkGapAndCRC(t *testing.T) {
	_, raw := racyTrace(t)
	m := newManager(t, ingest.Config{})
	st, _ := m.Open(ingest.OpenOptions{})
	chunks := chunksOf(raw, 7)

	// Skipping ahead is a gap naming the resume point.
	crc := ingest.Checksum(chunks[0])
	var ge *ingest.GapError
	if _, err := m.Append(st.Session, 3, chunks[0], &crc); !errors.As(err, &ge) {
		t.Fatalf("want GapError, got %v", err)
	} else if ge.Want != 0 {
		t.Fatalf("gap resume point %d, want 0", ge.Want)
	}

	// Declared CRC that doesn't match the payload is rejected before apply.
	bad := crc + 1
	var ce *ingest.CRCError
	if _, err := m.Append(st.Session, 0, chunks[0], &bad); !errors.As(err, &ce) {
		t.Fatalf("want CRCError, got %v", err)
	}
	// Neither rejection advanced the session.
	status, _ := m.Status(st.Session)
	if status.HighWater != 0 || status.Bytes != 0 {
		t.Fatalf("rejections advanced the session: %+v", status)
	}
	// Nil CRC skips verification.
	if _, err := m.Append(st.Session, 0, chunks[0], nil); err != nil {
		t.Fatalf("nil-crc append: %v", err)
	}
}

func TestQuotasAndLimits(t *testing.T) {
	t.Run("sessions", func(t *testing.T) {
		m := newManager(t, ingest.Config{MaxSessions: 2})
		for i := 0; i < 2; i++ {
			if _, err := m.Open(ingest.OpenOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Open(ingest.OpenOptions{}); !errors.Is(err, ingest.ErrSessionQuota) {
			t.Fatalf("want ErrSessionQuota, got %v", err)
		}
	})

	t.Run("chunkbytes", func(t *testing.T) {
		m := newManager(t, ingest.Config{MaxChunkBytes: 8})
		st, _ := m.Open(ingest.OpenOptions{})
		var lim *trace.LimitError
		if _, err := m.Append(st.Session, 0, make([]byte, 9), nil); !errors.As(err, &lim) {
			t.Fatalf("want LimitError, got %v", err)
		} else if lim.What != "chunk bytes" {
			t.Fatalf("LimitError.What = %q", lim.What)
		}
	})

	t.Run("streambytes", func(t *testing.T) {
		_, raw := racyTrace(t)
		m := newManager(t, ingest.Config{Limits: trace.DecodeLimits{MaxBytes: int64(len(raw) - 1)}})
		st, _ := m.Open(ingest.OpenOptions{})
		var lastErr error
		for i, c := range chunksOf(raw, 7) {
			if _, lastErr = m.Append(st.Session, uint64(i), c, nil); lastErr != nil {
				break
			}
		}
		var lim *trace.LimitError
		if !errors.As(lastErr, &lim) || lim.What != "bytes" {
			t.Fatalf("want stream bytes LimitError, got %v", lastErr)
		}
		// The decode failure kills the session.
		var fe *ingest.FailedError
		if _, err := m.Commit(st.Session); !errors.As(err, &fe) {
			t.Fatalf("commit of failed session: got %v", err)
		}
	})
}

func TestCommitIncompleteAndReplay(t *testing.T) {
	_, raw := racyTrace(t)
	m := newManager(t, ingest.Config{})
	st, _ := m.Open(ingest.OpenOptions{})
	chunks := chunksOf(raw, 7)
	streamIn(t, m, st.Session, chunks[:len(chunks)-1]) // hold back the tail

	var ie *ingest.IncompleteError
	if _, err := m.Commit(st.Session); !errors.As(err, &ie) {
		t.Fatalf("want IncompleteError, got %v", err)
	}

	// Fresh session: commit, bind a job, then replay the commit.
	st2, _ := m.Open(ingest.OpenOptions{})
	streamIn(t, m, st2.Session, chunks)
	if _, err := m.Commit(st2.Session); err != nil {
		t.Fatal(err)
	}
	// Before SetJob, a replayed commit is pending.
	if _, err := m.Commit(st2.Session); !errors.Is(err, ingest.ErrCommitPending) {
		t.Fatalf("want ErrCommitPending, got %v", err)
	}
	m.SetJob(st2.Session, "j-42")
	com, err := m.Commit(st2.Session)
	if err != nil {
		t.Fatal(err)
	}
	if com.JobID != "j-42" {
		t.Fatalf("replayed commit job %q, want j-42", com.JobID)
	}
	// Chunks to a sealed session bounce.
	crc := ingest.Checksum(chunks[0])
	if _, err := m.Append(st2.Session, uint64(len(chunks)), chunks[0], &crc); !errors.Is(err, ingest.ErrSealed) {
		t.Fatalf("want ErrSealed, got %v", err)
	}
}

func TestPartialAndBusEvents(t *testing.T) {
	_, raw := racyTrace(t)
	bus := stream.NewBus("test")
	sub := bus.Subscribe(64)
	defer sub.Close()
	reg := obs.NewRegistry()
	m := newManager(t, ingest.Config{Bus: bus, Registry: reg})
	st, _ := m.Open(ingest.OpenOptions{Detector: detector.Options{MaxReportsPerAddr: 1}})
	streamIn(t, m, st.Session, chunksOf(raw, 5))

	// Mid-stream (pre-commit) partial shows the race.
	p, err := m.Partial(st.Session)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != ingest.StateReceiving {
		t.Fatalf("state %q before commit", p.State)
	}
	if len(p.Races) != 1 {
		t.Fatalf("partial races %d, want 1", len(p.Races))
	}
	if p.Races[0].Kind.String() != "write-read" {
		t.Fatalf("race kind %s", p.Races[0].Kind)
	}

	if _, err := m.Commit(st.Session); err != nil {
		t.Fatal(err)
	}
	m.SetJob(st.Session, "j-7")
	// Partial is reachable by job ID after commit.
	p2, err := m.Partial("j-7")
	if err != nil {
		t.Fatal(err)
	}
	if p2.State != ingest.StateCommitted || len(p2.Races) != 1 {
		t.Fatalf("post-commit partial %+v", p2)
	}

	// The bus saw chunk events and exactly one race_found.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var chunks, races int
	for races == 0 {
		ev, ok := sub.Next(ctx)
		if !ok {
			t.Fatal("bus closed early")
		}
		switch ev.Type {
		case stream.TypeTraceChunk:
			chunks++
			if ev.Job != st.Session {
				t.Fatalf("chunk event job %q, want %q", ev.Job, st.Session)
			}
		case stream.TypeRaceFound:
			races++
			if ev.Detail["kind"] != "write-read" {
				t.Fatalf("race event detail %+v", ev.Detail)
			}
		}
	}
	if chunks == 0 {
		t.Fatal("no trace_chunk events before the race")
	}
	if got := reg.CounterValue(obs.IngestRaces); got != 1 {
		t.Fatalf("ingest races counter %d", got)
	}
}

func TestIdleGC(t *testing.T) {
	m := newManager(t, ingest.Config{IdleTimeout: time.Millisecond})
	reg := m.Config().Registry
	st, _ := m.Open(ingest.OpenOptions{})
	time.Sleep(5 * time.Millisecond)
	m.SweepNow()
	if _, err := m.Status(st.Session); !errors.Is(err, ingest.ErrNoSession) {
		t.Fatalf("expired session still visible: %v", err)
	}
	if m.Len() != 0 {
		t.Fatalf("sessions live after sweep: %d", m.Len())
	}
	if got := reg.CounterValue(obs.IngestSessionsExpired); got != 1 {
		t.Fatalf("expired counter %d, want 1", got)
	}

	// A committed session idles out without counting as expired.
	_, raw := racyTrace(t)
	st2, _ := m.Open(ingest.OpenOptions{})
	streamIn(t, m, st2.Session, chunksOf(raw, len(raw)))
	if _, err := m.Commit(st2.Session); err != nil {
		t.Fatal(err)
	}
	m.SetJob(st2.Session, "j-9")
	time.Sleep(5 * time.Millisecond)
	m.SweepNow()
	if _, err := m.Partial("j-9"); !errors.Is(err, ingest.ErrNoSession) {
		t.Fatal("committed session not reclaimed")
	}
	if got := reg.CounterValue(obs.IngestSessionsExpired); got != 1 {
		t.Fatalf("committed idle-out counted as expired: %d", got)
	}
}

// TestCommittedSessionFreesItsSlot: a committed session no longer counts
// as open, so MaxSessions+1 sequential uploads all open, and the gauge and
// Len drop back at each commit.
func TestCommittedSessionFreesItsSlot(t *testing.T) {
	_, raw := racyTrace(t)
	m := newManager(t, ingest.Config{MaxSessions: 2})
	reg := m.Config().Registry
	for i := 0; i < 3; i++ {
		st, err := m.Open(ingest.OpenOptions{})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if got := reg.Gauge(obs.IngestSessionsOpen).Value(); got != 1 || m.Len() != 1 {
			t.Fatalf("session %d receiving: gauge %d, Len %d; want 1", i, got, m.Len())
		}
		streamIn(t, m, st.Session, chunksOf(raw, 64))
		if _, err := m.Commit(st.Session); err != nil {
			t.Fatalf("session %d commit: %v", i, err)
		}
		if got := reg.Gauge(obs.IngestSessionsOpen).Value(); got != 0 || m.Len() != 0 {
			t.Fatalf("session %d committed: gauge %d, Len %d; want 0", i, got, m.Len())
		}
		if st, err := m.Status(st.Session); err != nil || st.State != ingest.StateCommitted || st.Races != 1 {
			t.Fatalf("session %d status after commit = %+v, %v", i, st, err)
		}
	}
}

// TestConcurrentSessionsCount: sessions committed, failed and expired
// from many goroutines at once, with the sweep racing the commits, each
// leave the receiving count exactly once: the gauge and Len end at zero.
func TestConcurrentSessionsCount(t *testing.T) {
	_, raw := racyTrace(t)
	m := newManager(t, ingest.Config{MaxSessions: 64, IdleTimeout: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				st, err := m.Open(ingest.OpenOptions{})
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				chunks := chunksOf(raw, 97)
				if i%2 == 1 {
					chunks = chunks[:len(chunks)/2] // an incomplete stream fails at commit
				}
				for seq, c := range chunks {
					if _, err := m.Append(st.Session, uint64(seq), c, nil); err != nil {
						break // expired under the sweep
					}
				}
				m.SweepNow()
				m.Commit(st.Session) // commits, fails, or finds the session ended
			}
		}()
	}
	wg.Wait()
	if got := m.Config().Registry.Gauge(obs.IngestSessionsOpen).Value(); got != 0 || m.Len() != 0 {
		t.Fatalf("after every session ended: gauge %d, Len %d; want 0", got, m.Len())
	}
}

func TestUnknownSession(t *testing.T) {
	m := newManager(t, ingest.Config{})
	if _, err := m.Append("s-404", 0, []byte("x"), nil); !errors.Is(err, ingest.ErrNoSession) {
		t.Fatalf("append: %v", err)
	}
	if _, err := m.Commit("s-404"); !errors.Is(err, ingest.ErrNoSession) {
		t.Fatalf("commit: %v", err)
	}
	if _, err := m.Partial("s-404"); !errors.Is(err, ingest.ErrNoSession) {
		t.Fatalf("partial: %v", err)
	}
}

// TestAppendAllocsBoundedByChunk bounds what applying 64 KiB chunks of a
// recorded kernel trace allocates: each event goes from the decoder
// straight into the live replay, so a chunk costs the shadow state its
// events touch, never a slice of decoded events.
func TestAppendAllocsBoundedByChunk(t *testing.T) {
	k, _ := workloads.ByName("streamcluster")
	cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
	rec := trace.NewRecorder("streamcluster")
	cfg.Tracer = rec
	if _, err := runner.Run(k.Build(workloads.Config{Threads: 4, Scale: 1}), cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	chunks := chunksOf(buf.Bytes(), 64<<10)

	m := newManager(t, ingest.Config{})
	st, err := m.Open(ingest.OpenOptions{Detector: detector.Options{MaxReportsPerAddr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	streamIn(t, m, st.Session, chunks)
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(buf.Len())
	t.Logf("%d chunks, %d bytes: allocated %.2fx the chunk bytes", len(chunks), buf.Len(), ratio)
	if ratio > 4 {
		t.Errorf("appending allocated %.2fx the chunk bytes, want at most 4x", ratio)
	}
}
