package trace_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"demandrace/internal/demand"
	"demandrace/internal/detector"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
)

// FuzzDecodeBinary asserts the binary decoder never panics and never
// accepts garbage silently: any input either round-trips as a valid trace
// or errors.
func FuzzDecodeBinary(f *testing.F) {
	// Seed with a real trace and a few corruptions of it.
	tr := recordedTrace(&testing.T{}, "racy_flag", demand.Continuous)
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("DRT1"))
	f.Add([]byte{})
	corrupted := append([]byte(nil), valid...)
	for i := 10; i < len(corrupted); i += 97 {
		corrupted[i] ^= 0xff
	}
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded trace must be safely replayable and
		// re-encodable.
		det := trace.Replay(got, detector.Options{})
		_ = det.Reports()
		var out bytes.Buffer
		if err := trace.EncodeBinary(&out, got); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
	})
}

// FuzzStreamDecode splits data at seeded random chunk boundaries and holds
// the streamed path to the one-shot one: both decoders fail, or both yield
// the same events, and then a chunk-by-chunk LiveReplay ends with the
// reports and stats of a batch Replay and of a pre-sized detector. Each
// over the same splits must hand out exactly Feed's events, Seq included,
// and DecodeEach must agree with the one-shot decoder on the program name,
// the events and the error.
func FuzzStreamDecode(f *testing.F) {
	tr := recordedTrace(&testing.T{}, "racy_flag", demand.Continuous)
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, int64(1))
	f.Add(valid[:len(valid)/2], int64(2))
	f.Add(craftedTrace(65533, 0), int64(3))
	f.Add(craftedTrace(1<<32-1, 0), int64(4))
	f.Add(craftedTrace(0, 1<<31), int64(5))
	f.Add(encodeTrace(&testing.T{}, barrierTrace(func(set []vclock.TID) []vclock.TID { return set })), int64(6))

	opt := detector.Options{MaxReportsPerAddr: -1}
	f.Fuzz(func(t *testing.T, data []byte, splitSeed int64) {
		want, batchErr := trace.DecodeBinary(bytes.NewReader(data))
		var oneShot []trace.Event
		prog, oneShotErr := trace.DecodeEach(data, trace.DefaultDecodeLimits, func(e *trace.Event) {
			oneShot = append(oneShot, *e)
		})
		if fmt.Sprint(oneShotErr) != fmt.Sprint(batchErr) {
			t.Fatalf("DecodeEach error %v, DecodeBinary error %v", oneShotErr, batchErr)
		}

		rng := rand.New(rand.NewSource(splitSeed))
		dec := trace.NewStreamDecoder(trace.DefaultDecodeLimits)
		eachDec := trace.NewStreamDecoder(trace.DefaultDecodeLimits)
		live := trace.NewLiveReplay(opt)
		var events, eachEvents []trace.Event
		var streamErr, eachErr error
		for off := 0; off < len(data) && streamErr == nil; {
			end := min(len(data), off+1+rng.Intn(1<<rng.Intn(12)))
			var evs []trace.Event
			evs, streamErr = dec.Feed(data[off:end])
			for _, e := range evs {
				live.Apply(e)
			}
			events = append(events, evs...)
			eachErr = eachDec.Each(data[off:end], func(e *trace.Event) {
				eachEvents = append(eachEvents, *e)
			})
			if fmt.Sprint(eachErr) != fmt.Sprint(streamErr) {
				t.Fatalf("Each error %v, Feed error %v", eachErr, streamErr)
			}
			off = end
		}
		if !reflect.DeepEqual(eachEvents, events) {
			t.Fatal("Each handed out different events from Feed")
		}
		if streamErr == nil {
			streamErr = dec.Finish()
		}
		if (batchErr == nil) != (streamErr == nil) {
			t.Fatalf("batch error %v, streamed error %v", batchErr, streamErr)
		}
		if batchErr != nil {
			return
		}
		if prog != want.Program || !reflect.DeepEqual(oneShot, want.Events) {
			t.Fatal("DecodeEach differs from the one-shot decode")
		}
		if dec.Program() != want.Program || !reflect.DeepEqual(events, want.Events) {
			t.Fatal("streamed events differ from the one-shot decode")
		}
		for name, batch := range map[string]*detector.Detector{
			"batch replay":    trace.Replay(want, opt),
			"presized replay": presizedReplay(want, opt),
		} {
			if !reflect.DeepEqual(live.Races(), batch.Reports()) {
				t.Fatalf("chunked live replay reports differ from %s", name)
			}
			if live.Detector().Stats() != batch.Stats() {
				t.Fatalf("live stats %+v, %s %+v", live.Detector().Stats(), name, batch.Stats())
			}
		}
	})
}

// presizedReplay replays tr through a detector sized for the whole trace up
// front, the oracle for in-place growth: growing as threads and sync
// objects appear must not change a report or a counter.
func presizedReplay(tr *trace.Trace, opt detector.Options) *detector.Detector {
	threads, mutexes, sems := tr.Dims()
	det := detector.New(threads, mutexes, sems, opt)
	for i := range tr.Events {
		trace.ApplyEvent(det, &tr.Events[i])
	}
	return det
}

// FuzzDecodeJSON mirrors the binary fuzz for the JSON codec.
func FuzzDecodeJSON(f *testing.F) {
	tr := recordedTrace(&testing.T{}, "micro_private", demand.Off)
	var buf bytes.Buffer
	if err := trace.EncodeJSON(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"program":"x","events":[{"seq":1,"tid":-5,"kind":99}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = trace.Replay(got, detector.Options{}).Reports()
	})
}
