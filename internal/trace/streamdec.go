package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"demandrace/internal/cache"
	"demandrace/internal/mem"
	"demandrace/internal/program"
	"demandrace/internal/vclock"
)

// StreamDecoder is the DRT1 decoder. It accepts the byte stream in
// arbitrary fragments (down to one byte at a time) and hands out events as
// soon as they are complete. Each is its one parse loop: Feed is Each
// collecting copies, DecodeEach and DecodeBinaryLimited are one Each over
// the whole input. It enforces DecodeLimits and the ID bounds with typed
// *LimitError values, which the HTTP layer maps to 413, and numbers events
// 1, 2, … in Seq.
//
// Errors are sticky: once Each, Feed or Finish fails, every later call
// returns the same error. Bytes past the declared event count are an
// error: on an upload they mean a client bug worth surfacing, not padding
// worth ignoring.
type StreamDecoder struct {
	lim DecodeLimits

	buf []byte // unconsumed bytes: at most one partial header or event
	fed int64  // total bytes accepted across all calls

	headerDone bool
	program    string
	declared   uint64 // event count from the header
	decoded    uint64

	// ev is the event Each hands to its callback, overwritten by every
	// event. It lives in the decoder, which is on the heap already, so
	// handing it to a func value allocates nothing.
	ev Event

	err error
}

// NewStreamDecoder builds a decoder bounded by lim (zero fields mean
// unlimited).
func NewStreamDecoder(lim DecodeLimits) *StreamDecoder {
	return &StreamDecoder{lim: lim}
}

// Program returns the trace's program name ("" until the header parses).
func (d *StreamDecoder) Program() string { return d.program }

// Decoded returns how many events have been handed out so far.
func (d *StreamDecoder) Decoded() uint64 { return d.decoded }

// Declared returns the event count the header promised (0 until the
// header parses).
func (d *StreamDecoder) Declared() uint64 { return d.declared }

// BytesFed returns the total bytes accepted so far.
func (d *StreamDecoder) BytesFed() int64 { return d.fed }

// Err returns the sticky decode error, if any.
func (d *StreamDecoder) Err() error { return d.err }

// fail latches err and returns it.
func (d *StreamDecoder) fail(err error) error {
	d.err = err
	return err
}

// Each appends p to the stream and calls fn on every event completed by
// it, in stream order. The *Event is the decoder's own and is overwritten
// by the next event, so fn must copy whatever it keeps; the Parties and
// Str it points to are never reused. Events already handed out are never
// handed out again; a fragment that ends mid-event is buffered until the
// rest arrives. p is not retained. The byte cap is checked before any of
// p is parsed; a malformed event fails after fn has seen the ones before
// it.
func (d *StreamDecoder) Each(p []byte, fn func(*Event)) error {
	if d.err != nil {
		return d.err
	}
	d.fed += int64(len(p))
	if d.lim.MaxBytes > 0 && d.fed > d.lim.MaxBytes {
		return d.fail(&LimitError{What: "bytes", Limit: uint64(d.lim.MaxBytes), Got: uint64(d.lim.MaxBytes)})
	}
	// Parse p in place unless a partial event is waiting for its rest.
	b := p
	if len(d.buf) > 0 {
		d.buf = append(d.buf, p...)
		b = d.buf
	}

	off := 0
	for {
		if !d.headerDone {
			n, err := d.parseHeader(b[off:])
			if err != nil {
				return d.fail(err)
			}
			if n == 0 {
				break // need more bytes
			}
			off += n
			continue
		}
		if d.decoded == d.declared {
			if off < len(b) {
				return d.fail(fmt.Errorf("trace: %d bytes past the declared %d events",
					len(b)-off, d.declared))
			}
			break
		}
		n, err := parseEvent(b[off:], &d.ev)
		if err != nil {
			return d.fail(err)
		}
		if n == 0 {
			break // need more bytes
		}
		off += n
		d.decoded++
		d.ev.Seq = d.decoded
		fn(&d.ev)
	}
	// Keep only the unconsumed tail, in the decoder's own buffer (which
	// already holds it when b is that buffer and nothing was consumed).
	if off > 0 || len(d.buf) == 0 {
		d.buf = append(d.buf[:0], b[off:]...)
	}
	return nil
}

// Feed is Each returning copies of the events p completes. On error it
// returns the events before the failing one with the error.
func (d *StreamDecoder) Feed(p []byte) ([]Event, error) {
	var out []Event
	err := d.Each(p, func(e *Event) { out = append(out, *e) })
	return out, err
}

// DecodeEach decodes the whole trace in raw under lim, calling fn on each
// event as Each does, and returns the program name. It accepts and
// rejects exactly what DecodeBinaryLimited does, with the same errors,
// without holding the events: fn decides what each one costs.
func DecodeEach(raw []byte, lim DecodeLimits, fn func(*Event)) (string, error) {
	d := NewStreamDecoder(lim)
	if err := d.Each(raw, fn); err != nil {
		return "", err
	}
	if err := d.Finish(); err != nil {
		return "", err
	}
	return d.Program(), nil
}

// Finish declares the stream complete. It fails if the input ended inside
// the header, short of the declared event count, or had already failed.
func (d *StreamDecoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if !d.headerDone {
		return d.fail(fmt.Errorf("trace: stream ended inside the header (%d bytes)", d.fed))
	}
	if d.decoded < d.declared {
		return d.fail(fmt.Errorf("trace: stream ended after %d of %d declared events",
			d.decoded, d.declared))
	}
	return nil
}

// parseHeader tries to parse magic + program name + event count from b.
// Returns consumed == 0 when b is incomplete.
func (d *StreamDecoder) parseHeader(b []byte) (consumed int, err error) {
	if len(b) < len(magic) {
		return 0, nil
	}
	if [4]byte(b[:4]) != magic {
		return 0, errors.New("trace: bad magic (not a DRT1 trace)")
	}
	off := len(magic)
	nameLen, n := binary.Uvarint(b[off:])
	if n == 0 {
		return 0, nil
	}
	if n < 0 {
		return 0, errors.New("trace: malformed program-name length")
	}
	off += n
	if nameLen > maxNameLen {
		return 0, &LimitError{What: "program name", Limit: maxNameLen, Got: nameLen}
	}
	if uint64(len(b)-off) < nameLen {
		return 0, nil
	}
	name := string(b[off : off+int(nameLen)])
	off += int(nameLen)
	count, n := binary.Uvarint(b[off:])
	if n == 0 {
		return 0, nil
	}
	if n < 0 {
		return 0, errors.New("trace: malformed event count")
	}
	off += n
	if d.lim.MaxEvents > 0 && count > d.lim.MaxEvents {
		return 0, &LimitError{What: "events", Limit: d.lim.MaxEvents, Got: count}
	}
	d.program = name
	d.declared = count
	d.headerDone = true
	return off, nil
}

// parseEvent tries to parse one encoded event from b into e. It is the
// only parser of an encoded event. Returns consumed == 0 when b ends
// mid-event; errors are terminal. It writes e only when an event
// completes, and leaves Seq to the caller.
func parseEvent(b []byte, e *Event) (int, error) {
	if len(b) < 2 {
		return 0, nil
	}
	flags, kind := b[0], b[1]
	off := 2
	var vals [5]uint64
	for j := range vals {
		if off < len(b) && b[off] < 0x80 { // most fields take one byte
			vals[j] = uint64(b[off])
			off++
			continue
		}
		v, n := binary.Uvarint(b[off:])
		if n == 0 {
			return 0, nil
		}
		if n < 0 {
			return 0, errors.New("trace: malformed event field")
		}
		vals[j] = v
		off += n
	}
	if err := checkID("thread id", vals[0], maxThreadID); err != nil {
		return 0, err
	}
	if err := checkID("sync id", vals[3], maxSyncID); err != nil {
		return 0, err
	}
	var parties []vclock.TID
	if flags&flagBarrier != 0 {
		np, n := binary.Uvarint(b[off:])
		if n == 0 {
			return 0, nil
		}
		if n < 0 {
			return 0, errors.New("trace: malformed barrier party count")
		}
		off += n
		if np > maxParties {
			return 0, &LimitError{What: "barrier parties", Limit: maxParties, Got: np}
		}
		// Scan the parties before allocating them: an event still waiting
		// for its last bytes is re-parsed on every Each, and must not
		// allocate each time.
		first := off
		for j := uint64(0); j < np; j++ {
			v, n := binary.Uvarint(b[off:])
			if n == 0 {
				return 0, nil
			}
			if n < 0 {
				return 0, errors.New("trace: malformed barrier party")
			}
			if err := checkID("thread id", v, maxThreadID); err != nil {
				return 0, err
			}
			off += n
		}
		parties = make([]vclock.TID, np)
		for j := range parties {
			v, n := binary.Uvarint(b[first:])
			parties[j] = vclock.TID(v)
			first += n
		}
	}
	var str string
	if flags&flagStr != 0 {
		sl, n := binary.Uvarint(b[off:])
		if n == 0 {
			return 0, nil
		}
		if n < 0 {
			return 0, errors.New("trace: malformed label length")
		}
		off += n
		if sl > maxStrLen {
			return 0, &LimitError{What: "label", Limit: maxStrLen, Got: sl}
		}
		if uint64(len(b)-off) < sl {
			return 0, nil
		}
		str = string(b[off : off+int(sl)])
		off += int(sl)
	}
	// Field by field: assigning a composite literal builds it on the stack
	// and copies it, which took 15% of a parse-only pass.
	e.Kind = program.Kind(kind)
	e.HITM = flags&flagHITM != 0
	e.Analyzed = flags&flagAnalyzed != 0
	e.TID = vclock.TID(vals[0])
	e.Ctx = cache.Context(vals[1])
	e.Addr = mem.Addr(vals[2])
	e.Sync = program.SyncID(vals[3])
	e.N = vals[4]
	e.Parties = parties
	e.Str = str
	return off, nil
}
