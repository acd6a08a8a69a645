package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"demandrace/internal/program"
	"demandrace/internal/vclock"
)

// limitsTestTrace builds a small valid trace.
func limitsTestTrace(events int) *Trace {
	rec := NewRecorder("limits")
	for i := 0; i < events; i++ {
		rec.RecordOp(vclock.TID(i%4), 0, program.Op{Kind: program.OpLoad, Addr: 64}, i%2 == 0, true)
	}
	return rec.Trace()
}

func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	return buf.Bytes()
}

func TestDecodeBinaryLimitedEventCap(t *testing.T) {
	raw := encodeTrace(t, limitsTestTrace(100))
	if _, err := DecodeBinaryLimited(bytes.NewReader(raw), DecodeLimits{MaxEvents: 100}); err != nil {
		t.Fatalf("at-limit trace rejected: %v", err)
	}
	_, err := DecodeBinaryLimited(bytes.NewReader(raw), DecodeLimits{MaxEvents: 99})
	var lim *LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if lim.What != "events" || lim.Limit != 99 || lim.Got != 100 {
		t.Fatalf("limit error = %+v", lim)
	}
}

func TestDecodeBinaryLimitedByteCap(t *testing.T) {
	raw := encodeTrace(t, limitsTestTrace(1000))
	if _, err := DecodeBinaryLimited(bytes.NewReader(raw), DecodeLimits{MaxBytes: int64(len(raw))}); err != nil {
		t.Fatalf("at-limit trace rejected: %v", err)
	}
	_, err := DecodeBinaryLimited(bytes.NewReader(raw), DecodeLimits{MaxBytes: 64})
	var lim *LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if lim.What != "bytes" {
		t.Fatalf("limit error dimension = %q, want bytes", lim.What)
	}
}

// TestDecodeBinaryLyingCount feeds a header that declares more events than
// the stream holds: decode must fail at read time, never allocate for the
// declared count.
func TestDecodeBinaryLyingCount(t *testing.T) {
	raw := encodeTrace(t, limitsTestTrace(4))
	// Event count is a uvarint right after magic+name; for small traces it
	// is a single byte. Bump 4 → 100 (both single-byte uvarints).
	idx := len(magic) + 1 + len("limits")
	if raw[idx] != 4 {
		t.Fatalf("test assumption broken: count byte = %d", raw[idx])
	}
	raw[idx] = 100
	if _, err := DecodeBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated-under-count trace decoded")
	}
}

func TestDecodeBinaryDefaultLimitsRoundTrip(t *testing.T) {
	tr := limitsTestTrace(50)
	got, err := DecodeBinary(bytes.NewReader(encodeTrace(t, tr)))
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if got.Program != tr.Program || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip lost data: %d events vs %d", len(got.Events), len(tr.Events))
	}
}

// TestDecodeEachAllocsIndependentOfLength: a pass over a trace with no
// marks or barriers allocates per trace, never per event, because every
// event is handed out through the decoder's own Event.
func TestDecodeEachAllocsIndependentOfLength(t *testing.T) {
	var allocs []float64
	for _, n := range []int{1, 100, 10000} {
		raw := encodeTrace(t, limitsTestTrace(n))
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := DecodeEach(raw, DefaultDecodeLimits, func(*Event) {}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] != allocs[2] {
		t.Fatalf("allocations for 1, 100 and 10000 events: %v, want all equal", allocs)
	}
}

// TestDecodeLyingCountAllocatesLittle: a 40-byte body declaring 2^22
// events fails without reserving room for the declared count.
func TestDecodeLyingCountAllocatesLittle(t *testing.T) {
	raw := append([]byte("DRT1"), 1, 'x')
	raw = binary.AppendUvarint(raw, 1<<22)
	for len(raw)+minEventBytes <= 40 {
		raw = append(raw, flagAnalyzed, byte(program.OpLoad), 0, 0, 64, 0, 0)
	}
	raw = append(raw, make([]byte, 40-len(raw))...) // a partial fifth event
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinary(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body short of its declared events decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("decoding %d bytes allocated %d bytes, want under 64 KiB", len(raw), got)
	}
}
