package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
)

// encodeTrace renders tr to its binary form.
func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// feedAll pushes raw through a StreamDecoder in chunks of the given size
// and returns the reassembled trace.
func feedAll(t *testing.T, raw []byte, chunk int, lim trace.DecodeLimits) *trace.Trace {
	t.Helper()
	dec := trace.NewStreamDecoder(lim)
	var events []trace.Event
	for off := 0; off < len(raw); off += chunk {
		end := off + chunk
		if end > len(raw) {
			end = len(raw)
		}
		evs, err := dec.Feed(raw[off:end])
		if err != nil {
			t.Fatalf("Feed at offset %d: %v", off, err)
		}
		events = append(events, evs...)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	return &trace.Trace{Program: dec.Program(), Events: events}
}

func TestStreamDecoderMatchesBatch(t *testing.T) {
	tr := recordedTrace(t, "racy_counter", demand.Continuous)
	raw := encodeTrace(t, tr)
	want, err := trace.DecodeBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Chunk sizes crossing every boundary class: single bytes (every event
	// split mid-field), primes, and one-shot.
	for _, chunk := range []int{1, 3, 7, 64, 1 << 20} {
		got := feedAll(t, raw, chunk, trace.DecodeLimits{})
		if got.Program != want.Program {
			t.Fatalf("chunk %d: program %q, want %q", chunk, got.Program, want.Program)
		}
		if !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("chunk %d: events differ from batch decode", chunk)
		}
	}
}

func TestStreamDecoderBarrierAndMarks(t *testing.T) {
	// Hand-built trace exercising parties and labels, which have their own
	// variable-length encodings.
	rec := trace.NewRecorder("synthetic")
	rec.RecordMark(0, 0, "init")
	rec.RecordOp(1, 1, program.Op{Kind: program.OpStore, Addr: 64}, true, true)
	rec.RecordBarrier(0, []vclock.TID{0, 1, 2}, true)
	rec.RecordMark(2, 0, "teardown phase with a longer label")
	raw := encodeTrace(t, rec.Trace())
	want, err := trace.DecodeBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := feedAll(t, raw, 1, trace.DecodeLimits{})
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("1-byte stream decode differs from batch:\n got %+v\nwant %+v", got.Events, want.Events)
	}
}

func TestStreamDecoderLimits(t *testing.T) {
	tr := recordedTrace(t, "racy_flag", demand.Continuous)
	raw := encodeTrace(t, tr)

	t.Run("bytes", func(t *testing.T) {
		cap := int64(len(raw) - 1)
		dec := trace.NewStreamDecoder(trace.DecodeLimits{MaxBytes: cap})
		var lastErr error
		for off := 0; off < len(raw) && lastErr == nil; off += 100 {
			end := off + 100
			if end > len(raw) {
				end = len(raw)
			}
			_, lastErr = dec.Feed(raw[off:end])
		}
		var lim *trace.LimitError
		if !errors.As(lastErr, &lim) || lim.What != "bytes" {
			t.Fatalf("want bytes LimitError, got %v", lastErr)
		}
		if lim.Limit != uint64(cap) || lim.Got != uint64(cap) {
			t.Fatalf("limit error fields %+v want Limit=Got=%d (batch parity)", lim, cap)
		}
		// Sticky: a later feed repeats the error.
		if _, err := dec.Feed([]byte{0}); !errors.As(err, &lim) {
			t.Fatalf("error not sticky: %v", err)
		}
	})

	t.Run("events", func(t *testing.T) {
		dec := trace.NewStreamDecoder(trace.DecodeLimits{MaxEvents: 1})
		_, err := dec.Feed(raw)
		var lim *trace.LimitError
		if !errors.As(err, &lim) || lim.What != "events" {
			t.Fatalf("want events LimitError, got %v", err)
		}
	})

	t.Run("badmagic", func(t *testing.T) {
		dec := trace.NewStreamDecoder(trace.DecodeLimits{})
		if _, err := dec.Feed([]byte("NOPE....")); err == nil {
			t.Fatal("bad magic accepted")
		}
	})

	t.Run("truncated", func(t *testing.T) {
		dec := trace.NewStreamDecoder(trace.DecodeLimits{})
		if _, err := dec.Feed(raw[:len(raw)/2]); err != nil {
			t.Fatalf("prefix feed failed: %v", err)
		}
		if err := dec.Finish(); err == nil {
			t.Fatal("Finish accepted a truncated stream")
		}
	})

	t.Run("trailing", func(t *testing.T) {
		dec := trace.NewStreamDecoder(trace.DecodeLimits{})
		if _, err := dec.Feed(raw); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Feed([]byte{0xFF}); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
}

func TestLiveReplayMatchesBatch(t *testing.T) {
	for _, kernel := range []string{"racy_counter", "racy_flag", "histogram", "micro_false_sharing"} {
		for _, opt := range []detector.Options{
			{MaxReportsPerAddr: 1},
			{MaxReportsPerAddr: -1, FullVC: true},
		} {
			tr := recordedTrace(t, kernel, demand.Continuous)
			want := trace.Replay(tr, opt)

			live := trace.NewLiveReplay(opt)
			for _, e := range tr.Events {
				live.Apply(e)
			}
			got := live.Detector()
			if !reflect.DeepEqual(got.Reports(), want.Reports()) {
				t.Fatalf("%s %+v: live reports differ from batch", kernel, opt)
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("%s %+v: live stats %+v, want %+v", kernel, opt, got.Stats(), want.Stats())
			}
		}
	}
}

func TestLiveReplayRebuildsOnLateDims(t *testing.T) {
	// Threads and sync objects appear in increasing order, forcing an
	// in-place growth per step; the result must still match batch replay.
	rec := trace.NewRecorder("late-dims")
	rec.RecordOp(0, 0, program.Op{Kind: program.OpStore, Addr: 64}, true, true)  // store t0
	rec.RecordOp(1, 1, program.Op{Kind: program.OpLoad, Addr: 64}, true, true)   // load t1 → race
	rec.RecordOp(2, 0, program.Op{Kind: program.OpStore, Addr: 128}, true, true) // t2 appears
	rec.RecordBarrier(0, []vclock.TID{0, 1, 2, 3}, true)                         // t3 via parties
	rec.RecordOp(3, 1, program.Op{Kind: program.OpLoad, Addr: 128}, false, true) // post-barrier
	tr := rec.Trace()

	opt := detector.Options{MaxReportsPerAddr: -1}
	want := presizedReplay(tr, opt)
	live := trace.NewLiveReplay(opt)
	for _, e := range tr.Events {
		live.Apply(e)
	}
	if live.Rebuilds() < 2 {
		t.Fatalf("expected multiple growths, got %d", live.Rebuilds())
	}
	if !reflect.DeepEqual(live.Detector().Reports(), want.Reports()) {
		t.Fatalf("reports differ:\n live %+v\nbatch %+v", live.Detector().Reports(), want.Reports())
	}
	if live.Detector().Stats() != want.Stats() {
		t.Fatalf("stats differ: live %+v batch %+v", live.Detector().Stats(), want.Stats())
	}
	if !reflect.DeepEqual(live.Summary().ByKind, trace.Summarize(tr).ByKind) {
		t.Fatalf("live summary %+v, want %+v", live.Summary(), trace.Summarize(tr))
	}
}

// lateThreadTrace has n threads that first appear in ascending order, each
// storing to one shared word and then releasing its own mutex.
func lateThreadTrace(n int) *trace.Trace {
	rec := trace.NewRecorder("late-threads")
	for i := 0; i < n; i++ {
		tid := vclock.TID(i)
		rec.RecordOp(tid, 0, program.Op{Kind: program.OpStore, Addr: 64}, false, true)
		rec.RecordOp(tid, 0, program.Op{Kind: program.OpLock, Sync: program.SyncID(i)}, false, true)
		rec.RecordOp(tid, 0, program.Op{Kind: program.OpUnlock, Sync: program.SyncID(i)}, false, true)
	}
	return rec.Trace()
}

// TestLiveReplayLateThreadsLinear is the adversarial case for streaming:
// every event of a 300-thread trace names a thread or mutex the detector
// has not seen, and the work must still be linear in events.
func TestLiveReplayLateThreadsLinear(t *testing.T) {
	const threads = 300
	tr := lateThreadTrace(threads)
	opt := detector.Options{MaxReportsPerAddr: -1}
	want := trace.Replay(tr, opt)

	live := trace.NewLiveReplay(opt)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range tr.Events {
		live.Apply(e)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("live replay of %d late threads allocated %d bytes, want under 2 MiB", threads, got)
	}
	if live.Rebuilds() < threads {
		t.Errorf("%d growths, want at least %d", live.Rebuilds(), threads)
	}
	for name, batch := range map[string]*detector.Detector{"batch": want, "presized": presizedReplay(tr, opt)} {
		if !reflect.DeepEqual(live.Races(), batch.Reports()) {
			t.Fatalf("live reports differ from %s replay", name)
		}
		if got := live.Detector().Stats(); got != batch.Stats() {
			t.Fatalf("live stats %+v, %s %+v", got, name, batch.Stats())
		}
	}
	if len(want.Reports()) != threads-1 {
		t.Fatalf("%d races, want one per later thread (%d)", len(want.Reports()), threads-1)
	}
}

// craftedTrace hand-encodes a one-event trace whose load names thread tid
// and sync object sync, bypassing the int32 fields of Event so that raw
// varints past the ID bounds can be written.
func craftedTrace(tid, sync uint64) []byte {
	b := append([]byte("DRT1"), 1, 'x', 1) // name "x", one event
	b = append(b, 2, byte(program.OpLoad)) // analyzed load
	for _, v := range []uint64{tid, 0, 64, sync, 0} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestDecodeRejectsOutOfRangeIDs(t *testing.T) {
	for _, c := range []struct {
		name string
		raw  []byte
		what string // "" when the trace must decode
	}{
		{name: "tid 65533", raw: craftedTrace(65533, 0), what: "thread id"},
		{name: "tid 2^32-1", raw: craftedTrace(1<<32-1, 0), what: "thread id"},
		{name: "sync 2^31", raw: craftedTrace(0, 1<<31), what: "sync id"},
		{name: "largest ids", raw: craftedTrace(1<<10-1, 1<<16-1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, batchErr := trace.DecodeBinary(bytes.NewReader(c.raw))
			dec := trace.NewStreamDecoder(trace.DefaultDecodeLimits)
			var streamErr error
			for i := 0; i < len(c.raw) && streamErr == nil; i++ {
				_, streamErr = dec.Feed(c.raw[i : i+1])
			}
			if streamErr == nil {
				streamErr = dec.Finish()
			}
			for path, err := range map[string]error{"batch": batchErr, "1-byte stream": streamErr} {
				if c.what == "" {
					if err != nil {
						t.Errorf("%s: in-range IDs rejected: %v", path, err)
					}
					continue
				}
				var lim *trace.LimitError
				if !errors.As(err, &lim) || lim.What != c.what {
					t.Errorf("%s: got %v, want a %q LimitError", path, err, c.what)
				}
			}
		})
	}
}

func TestDecodeJSONRejectsOutOfRangeIDs(t *testing.T) {
	for _, doc := range []string{
		`{"program":"x","events":[{"tid":-5,"kind":0}]}`,
		`{"program":"x","events":[{"tid":4000,"kind":0}]}`,
		`{"program":"x","events":[{"tid":0,"kind":0,"sync":70000}]}`,
		`{"program":"x","events":[{"kind":0,"parties":[0,1024]}]}`,
	} {
		var lim *trace.LimitError
		if _, err := trace.DecodeJSON(strings.NewReader(doc)); !errors.As(err, &lim) {
			t.Errorf("%s: got %v, want a LimitError", doc, err)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	raw := encodeTrace(t, recordedTrace(t, "racy_flag", demand.Continuous))
	if _, err := trace.DecodeBinary(bytes.NewReader(append(raw, 0))); err == nil {
		t.Fatal("one-shot decode accepted a byte past the declared events")
	}
}

func TestLiveReplayEmptyDetector(t *testing.T) {
	live := trace.NewLiveReplay(detector.Options{})
	if live.Races() != nil {
		t.Fatal("empty replay has races")
	}
	if live.Detector() == nil {
		t.Fatal("empty replay returned nil detector")
	}
}

// barrierTrace records four threads racing around two barriers, listing
// each barrier's parties as parties(set) returns them. Thread 5 appears
// only as a barrier party, so its first reference grows the detector.
func barrierTrace(parties func(set []vclock.TID) []vclock.TID) *trace.Trace {
	rec := trace.NewRecorder("barriers")
	op := func(t vclock.TID, kind program.Kind, addr mem.Addr) {
		rec.RecordOp(t, 0, program.Op{Kind: kind, Addr: addr}, false, true)
	}
	op(0, program.OpStore, 0x100)
	op(1, program.OpStore, 0x200)
	rec.RecordBarrier(0, parties([]vclock.TID{0, 1, 2, 3, 5}), true)
	op(1, program.OpLoad, 0x100) // ordered by barrier 0
	op(2, program.OpStore, 0x200)
	op(3, program.OpStore, 0x300)
	op(0, program.OpStore, 0x300) // races with t3
	rec.RecordBarrier(1, parties([]vclock.TID{1, 3}), true)
	op(3, program.OpLoad, 0x200)  // races with t2, not a party of barrier 1
	op(1, program.OpStore, 0x300) // ordered after t3's store, races with t0's
	op(5, program.OpLoad, 0x100)  // ordered by barrier 0
	return rec.Trace()
}

// TestBarrierRepeatedPartiesMatchDeduplicated checks that a barrier
// listing its parties thousands of times, out of order, replays exactly
// like its deduplicated form: same reports, Stats and per-thread clocks,
// through Replay and through a stream fed one byte at a time.
func TestBarrierRepeatedPartiesMatchDeduplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	repeated := barrierTrace(func(set []vclock.TID) []vclock.TID {
		var out []vclock.TID
		for i := 0; i < 1000; i++ {
			out = append(out, set...)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	})
	want := trace.Replay(barrierTrace(func(set []vclock.TID) []vclock.TID { return set }),
		detector.Options{MaxReportsPerAddr: -1})
	if len(want.Reports()) != 3 {
		t.Fatalf("deduplicated form reports %d races, want 3: %v", len(want.Reports()), want.Reports())
	}
	threads, _, _ := repeated.Dims()

	check := func(path string, got *detector.Detector) {
		t.Helper()
		if !reflect.DeepEqual(got.Reports(), want.Reports()) {
			t.Errorf("%s: reports %v, want %v", path, got.Reports(), want.Reports())
		}
		if got.Stats() != want.Stats() {
			t.Errorf("%s: stats %+v, want %+v", path, got.Stats(), want.Stats())
		}
		for tid := 0; tid < threads; tid++ {
			g, w := got.ClockOf(vclock.TID(tid)), want.ClockOf(vclock.TID(tid))
			if g.String() != w.String() {
				t.Errorf("%s: t%d clock %v, want %v", path, tid, g, w)
			}
		}
	}
	check("Replay", trace.Replay(repeated, detector.Options{MaxReportsPerAddr: -1}))

	raw := encodeTrace(t, repeated)
	dec := trace.NewStreamDecoder(trace.DecodeLimits{})
	live := trace.NewLiveReplay(detector.Options{MaxReportsPerAddr: -1})
	for i := range raw {
		evs, err := dec.Feed(raw[i : i+1])
		if err != nil {
			t.Fatalf("Feed at offset %d: %v", i, err)
		}
		for _, e := range evs {
			live.Apply(e)
		}
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	check("1-byte stream", live.Detector())
}
