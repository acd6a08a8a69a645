// Package trace records the op-level event stream of a run and replays it
// through a detector offline.
//
// Tracing separates "execute once" from "analyze many times": a trace
// recorded under any policy replays through fresh detectors with different
// options (FastTrack vs full-VC, different report caps) without re-running
// the simulator, mirroring how commercial tools support post-mortem
// analysis of collected logs. Traces encode to a compact varint binary
// format and to JSON.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"demandrace/internal/cache"
	"demandrace/internal/detector"
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/vclock"
)

// Event is one recorded execution event. Ordinary ops carry TID/Ctx/Op;
// barrier releases carry Parties instead (Op.Kind == OpBarrier).
type Event struct {
	// Seq is the global order of the event.
	Seq uint64 `json:"seq"`
	// TID is the executing thread (unused for barrier releases).
	TID vclock.TID `json:"tid"`
	// Ctx is the hardware context.
	Ctx cache.Context `json:"ctx"`
	// Kind, Addr, Sync, N mirror program.Op.
	Kind program.Kind   `json:"kind"`
	Addr mem.Addr       `json:"addr,omitempty"`
	Sync program.SyncID `json:"sync,omitempty"`
	N    uint64         `json:"n,omitempty"`
	// Parties lists barrier participants (barrier releases only).
	Parties []vclock.TID `json:"parties,omitempty"`
	// Str carries the region label of mark events.
	Str string `json:"str,omitempty"`
	// HITM marks memory events served by a remote Modified line.
	HITM bool `json:"hitm,omitempty"`
	// Analyzed marks events the demand controller let the detector see.
	Analyzed bool `json:"analyzed,omitempty"`
}

// Op reconstructs the program op of an ordinary event.
func (e Event) Op() program.Op {
	return program.Op{Kind: e.Kind, Addr: e.Addr, Sync: e.Sync, N: e.N}
}

// Trace is a recorded run.
type Trace struct {
	Program string  `json:"program"`
	Events  []Event `json:"events"`
}

// Recorder accumulates events; install it in the runner configuration.
type Recorder struct {
	tr  Trace
	seq uint64
}

// NewRecorder starts an empty recorder for the named program.
func NewRecorder(name string) *Recorder {
	return &Recorder{tr: Trace{Program: name}}
}

// RecordOp appends an ordinary op event.
func (r *Recorder) RecordOp(t vclock.TID, ctx cache.Context, op program.Op, hitm, analyzed bool) {
	r.seq++
	r.tr.Events = append(r.tr.Events, Event{
		Seq: r.seq, TID: t, Ctx: ctx,
		Kind: op.Kind, Addr: op.Addr, Sync: op.Sync, N: op.N,
		HITM: hitm, Analyzed: analyzed,
	})
}

// RecordMark appends a region-annotation event.
func (r *Recorder) RecordMark(t vclock.TID, ctx cache.Context, label string) {
	r.seq++
	r.tr.Events = append(r.tr.Events, Event{
		Seq: r.seq, TID: t, Ctx: ctx, Kind: program.OpMark, Str: label,
	})
}

// RecordBarrier appends a barrier-release event.
func (r *Recorder) RecordBarrier(id program.SyncID, parties []vclock.TID, analyzed bool) {
	r.seq++
	r.tr.Events = append(r.tr.Events, Event{
		Seq: r.seq, Kind: program.OpBarrier, Sync: id,
		Parties: append([]vclock.TID(nil), parties...), Analyzed: analyzed,
	})
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Trace { return &r.tr }

// Replay feeds a trace's analyzed events through a fresh detector built
// with opt and returns it. It is a LiveReplay over the whole trace: the
// detector grows to the trace's threads and sync objects as they appear.
func Replay(tr *Trace, opt detector.Options) *detector.Detector {
	l := NewLiveReplay(opt)
	for i := range tr.Events {
		l.OnEvent(&tr.Events[i])
	}
	return l.Detector()
}

// ApplyEvent feeds one event into det: mark events always set the region,
// everything else is gated on the event having been analyzed. This is the
// single event→detector mapping; LiveReplay.OnEvent, and through it Apply
// and Replay, is built on it.
func ApplyEvent(det *detector.Detector, e *Event) {
	if e.Kind == program.OpMark {
		det.SetRegion(e.TID, e.Str)
		return
	}
	if !e.Analyzed {
		return
	}
	switch e.Kind {
	case program.OpLoad:
		det.OnRead(e.TID, e.Addr)
	case program.OpStore:
		det.OnWrite(e.TID, e.Addr)
	case program.OpAtomicLoad:
		det.OnAtomicLoad(e.TID, e.Addr)
	case program.OpAtomicStore:
		det.OnAtomicStore(e.TID, e.Addr)
	case program.OpLock:
		det.OnLock(e.TID, e.Sync)
	case program.OpUnlock:
		det.OnUnlock(e.TID, e.Sync)
	case program.OpSignal:
		det.OnSignal(e.TID, e.Sync)
	case program.OpWait:
		det.OnWait(e.TID, e.Sync)
	case program.OpBarrier:
		det.OnBarrierRelease(e.Parties)
	}
}

// Summary aggregates a trace's event population.
type Summary struct {
	Program string
	Events  int
	Threads int
	// ByKind counts events per op kind, indexed by program.Kind.
	ByKind   [256]int
	HITM     int
	Analyzed int
}

// Summarize computes a trace's Summary.
func Summarize(tr *Trace) Summary {
	s := Summary{Program: tr.Program}
	for i := range tr.Events {
		s.Add(&tr.Events[i])
	}
	return s
}

// Add counts one more event into s. Threads is one past the largest thread
// ID any event or barrier party names, as in Trace.Dims.
func (s *Summary) Add(e *Event) {
	s.Events++
	s.ByKind[e.Kind]++
	if e.HITM {
		s.HITM++
	}
	if e.Analyzed {
		s.Analyzed++
	}
	s.Threads = max(s.Threads, int(e.TID)+1)
	for _, p := range e.Parties {
		s.Threads = max(s.Threads, int(p)+1)
	}
}

// Dims infers (threads, mutexes, semaphores) from the event stream.
func (tr *Trace) Dims() (threads, mutexes, sems int) {
	for _, e := range tr.Events {
		if int(e.TID) >= threads {
			threads = int(e.TID) + 1
		}
		for _, p := range e.Parties {
			if int(p) >= threads {
				threads = int(p) + 1
			}
		}
		switch e.Kind {
		case program.OpLock, program.OpUnlock:
			if int(e.Sync) >= mutexes {
				mutexes = int(e.Sync) + 1
			}
		case program.OpSignal, program.OpWait:
			if int(e.Sync) >= sems {
				sems = int(e.Sync) + 1
			}
		}
	}
	return threads, mutexes, sems
}

// ---- binary encoding ----

// magic and version guard the binary format.
var magic = [4]byte{'D', 'R', 'T', '1'}

const (
	flagHITM     = 1 << 0
	flagAnalyzed = 1 << 1
	flagBarrier  = 1 << 2
	flagStr      = 1 << 3
)

// minEventBytes is the shortest encoded event: flags, kind and five
// one-byte varints.
const minEventBytes = 7

// EncodeBinary writes the trace in the compact varint format.
func EncodeBinary(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(tr.Program)))
	if _, err := bw.WriteString(tr.Program); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(tr.Events)))
	for _, e := range tr.Events {
		var flags byte
		if e.HITM {
			flags |= flagHITM
		}
		if e.Analyzed {
			flags |= flagAnalyzed
		}
		if len(e.Parties) > 0 {
			flags |= flagBarrier
		}
		if e.Str != "" {
			flags |= flagStr
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		writeUvarint(bw, uint64(e.TID))
		writeUvarint(bw, uint64(e.Ctx))
		writeUvarint(bw, uint64(e.Addr))
		writeUvarint(bw, uint64(e.Sync))
		writeUvarint(bw, e.N)
		if flags&flagBarrier != 0 {
			writeUvarint(bw, uint64(len(e.Parties)))
			for _, p := range e.Parties {
				writeUvarint(bw, uint64(p))
			}
		}
		if flags&flagStr != 0 {
			writeUvarint(bw, uint64(len(e.Str)))
			if _, err := bw.WriteString(e.Str); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Decode limits: length fields in the input are untrusted, so buffers are
// never pre-allocated beyond these caps (a count larger than the remaining
// input fails at read time instead of exhausting memory). IDs are bounded
// too: the detector keeps one clock per thread, each as long as the
// largest thread ID, so one event naming thread 65533 would cost
// gigabytes. The largest program in the repository has 16 threads.
const (
	maxNameLen  = 1 << 12
	maxStrLen   = 1 << 16
	maxParties  = 1 << 16
	maxThreadID = 1<<10 - 1
	maxSyncID   = 1<<16 - 1
)

// checkID rejects an untrusted ID above max with a *LimitError naming
// what. Callers pass the raw value before any narrowing cast, so a value
// that would wrap to a small or negative ID is caught too.
func checkID(what string, id, max uint64) error {
	if id > max {
		return &LimitError{What: what, Limit: max, Got: id}
	}
	return nil
}

// checkIDs applies checkID to every ID a decoded event names.
func checkIDs(tid, sync uint64, parties []vclock.TID) error {
	if err := checkID("thread id", tid, maxThreadID); err != nil {
		return err
	}
	if err := checkID("sync id", sync, maxSyncID); err != nil {
		return err
	}
	for _, p := range parties {
		if err := checkID("thread id", uint64(p), maxThreadID); err != nil {
			return err
		}
	}
	return nil
}

// DecodeLimits bounds what DecodeBinaryLimited will accept from an
// untrusted trace. Zero fields mean "no bound for this dimension".
type DecodeLimits struct {
	// MaxEvents caps the event count a trace may declare (and decode).
	MaxEvents uint64
	// MaxBytes caps the total bytes consumed from the reader.
	MaxBytes int64
}

// DefaultDecodeLimits bounds decoding at 16 Mi events / 1 GiB of input —
// far above any trace the simulator produces, low enough that a malformed
// or hostile stream cannot exhaust memory.
var DefaultDecodeLimits = DecodeLimits{MaxEvents: 1 << 24, MaxBytes: 1 << 30}

// LimitError reports an input that exceeds a decode limit. It is the typed
// signal service-layer callers (the ddserved upload path) turn into an
// HTTP 413 instead of a generic parse failure.
type LimitError struct {
	// What names the exceeded dimension ("events", "bytes", "program name",
	// "barrier parties", "label", "thread id", "sync id").
	What string
	// Limit is the configured cap; Got is the offending value (for the
	// bytes dimension, Got is the limit at which reading stopped).
	Limit, Got uint64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("trace: %s %d exceeds decode limit %d", e.What, e.Got, e.Limit)
}

// DecodeBinary reads a trace written by EncodeBinary, bounded by
// DefaultDecodeLimits.
func DecodeBinary(r io.Reader) (*Trace, error) {
	return DecodeBinaryLimited(r, DefaultDecodeLimits)
}

// DecodeBinaryLimited reads a trace written by EncodeBinary, refusing input
// that exceeds lim with a *LimitError. It reads at most one byte past
// MaxBytes and hands the input to a StreamDecoder in one Each, so a
// one-shot decode and a streamed decode of the same bytes are the same
// parse: they accept the same inputs, fail on the same inputs (including
// bytes past the declared events), and yield the same events.
func DecodeBinaryLimited(r io.Reader, lim DecodeLimits) (*Trace, error) {
	if lim.MaxBytes > 0 {
		r = io.LimitReader(r, lim.MaxBytes+1)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading input: %w", err)
	}
	d := NewStreamDecoder(lim)
	var events []Event
	err = d.Each(raw, func(e *Event) {
		if events == nil {
			// Reserve once. The declared count is untrusted, but every
			// event takes at least minEventBytes of raw.
			events = make([]Event, 0, min(d.Declared(), uint64(len(raw)/minEventBytes)))
		}
		events = append(events, *e)
	})
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return nil, err
	}
	return &Trace{Program: d.Program(), Events: events}, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) // bufio.Writer errors surface at Flush
}

// EncodeJSON writes the trace as JSON.
func EncodeJSON(w io.Writer, tr *Trace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// DecodeJSON reads a JSON trace. Its IDs are bounded like the binary
// decoder's; a negative ID is out of bounds too.
func DecodeJSON(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, err
	}
	for _, e := range tr.Events {
		if err := checkIDs(uint64(e.TID), uint64(e.Sync), e.Parties); err != nil {
			return nil, err
		}
	}
	return &tr, nil
}
