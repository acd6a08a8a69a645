// Package stream is the live event layer: a small publish/subscribe bus
// for operational events (job lifecycle, cache activity, ring membership)
// served over Server-Sent Events at GET /v1/events.
//
// The design constraint that shapes everything here is that a slow
// subscriber must never block the worker pool. Publish is non-blocking by
// construction: each subscriber owns a bounded ring buffer; when a
// subscriber falls behind, its oldest undelivered events are dropped and
// counted, and the subscriber can see the gap in the event sequence
// numbers. The bus never applies backpressure to publishers — operational
// visibility rides along with the service, it does not steer it.
package stream

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Event types published by the service and cluster tiers.
const (
	// TypeJobQueued fires when a job is admitted to the queue.
	TypeJobQueued = "job_queued"
	// TypeJobStarted fires when a worker picks the job up.
	TypeJobStarted = "job_started"
	// TypeJobDone fires when a job completes (Detail carries the state, and
	// the result's cache key when the state is done).
	TypeJobDone = "job_done"
	// TypeCacheHit fires when a submit is served from the result cache.
	TypeCacheHit = "cache_hit"
	// TypeRingChange fires when a gateway marks a backend up or down.
	TypeRingChange = "ring_change"
	// TypeHello is the first event on every subscription, so a tail shows
	// who it is connected to before any job activity happens.
	TypeHello = "hello"
	// TypeTraceChunk fires when a streaming-ingest session applies a chunk
	// (Job carries the session ID; Detail carries seq/bytes/events/races).
	TypeTraceChunk = "trace_chunk"
	// TypeRaceFound fires the moment an in-flight upload's live analysis
	// surfaces a new race, before the session commits (Detail carries
	// addr/kind/cur/prev).
	TypeRaceFound = "race_found"
	// TypeAlertFiring fires exactly once when an alert rule transitions to
	// firing (Detail carries rule/severity/value/threshold/summary).
	TypeAlertFiring = "alert_firing"
	// TypeAlertResolved fires exactly once when a firing alert's condition
	// clears.
	TypeAlertResolved = "alert_resolved"
	// TypeReplicaRepair fires when a read miss on the owning backend was
	// answered from a replica and the owner was queued for back-fill
	// (Detail carries key/owner/source).
	TypeReplicaRepair = "replica_repair"
	// TypeTenantThrottled fires on the admitted→throttled edge of a
	// tenant's budget — once per exhaustion episode, not per rejected
	// request (Detail carries tenant/retry_after_s).
	TypeTenantThrottled = "tenant_throttled"
)

// Event is one operational occurrence, JSON-encoded on the wire.
type Event struct {
	// Seq is the bus-assigned sequence number, strictly increasing per
	// publishing process. Gaps visible to a subscriber mean drops.
	Seq uint64 `json:"seq"`
	// UnixMS is the publish time in milliseconds.
	UnixMS int64 `json:"t"`
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// Node names the publishing process.
	Node string `json:"node,omitempty"`
	// Job is the job ID the event concerns, if any.
	Job string `json:"job,omitempty"`
	// Trace is the trace ID of the request that caused the event, if any.
	Trace string `json:"trace,omitempty"`
	// Detail carries event-specific fields (state, backend, health, ...).
	Detail map[string]string `json:"detail,omitempty"`
	// Gap, set only on the hello of a resumed subscription, counts events
	// that fell out of the bus's retained ring before the client's
	// Last-Event-ID — history the resume could not replay.
	Gap uint64 `json:"gap,omitempty"`
	// Epoch, set only on a hello, is the serving bus's creation time in
	// Unix nanoseconds. A reconnecting client that sees it change is talking
	// to a restarted server, whose sequence numbers begin again at 1.
	Epoch int64 `json:"epoch,omitempty"`
}

// DefaultSubBuffer bounds each subscriber's undelivered-event ring.
const DefaultSubBuffer = 256

// Sub is one subscription: a bounded drop-oldest ring the bus writes into
// and the subscriber drains via Next.
type Sub struct {
	bus *Bus

	mu      sync.Mutex
	buf     []Event
	head    int
	n       int
	dropped uint64
	closed  bool

	// wake has capacity 1: publish does a non-blocking send, Next drains.
	wake chan struct{}
}

// push appends ev, evicting the oldest buffered event when full. Never
// blocks.
func (s *Sub) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) {
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
	}
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Next returns the oldest undelivered event, blocking until one arrives,
// ctx is done, or the subscription is closed. The boolean is false when
// no more events will come.
func (s *Sub) Next(ctx context.Context) (Event, bool) {
	for {
		s.mu.Lock()
		if s.n > 0 {
			ev := s.buf[s.head]
			s.head = (s.head + 1) % len(s.buf)
			s.n--
			s.mu.Unlock()
			return ev, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return Event{}, false
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return Event{}, false
		}
	}
}

// Dropped returns how many events this subscriber lost to the buffer
// bound.
func (s *Sub) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from the bus. Idempotent.
func (s *Sub) Close() {
	s.bus.unsubscribe(s)
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// DefaultRetained bounds the bus's replay ring, from which resumed
// subscriptions (Last-Event-ID) are backfilled.
const DefaultRetained = 1024

// Bus fans events out to subscribers. A nil *Bus is a valid no-op
// publisher, so event publication can be wired unconditionally.
type Bus struct {
	node  string
	epoch int64

	mu   sync.Mutex
	seq  uint64
	subs map[*Sub]struct{}

	// retained is a bounded ring of recently published events, kept so a
	// reconnecting SSE client can resume from its Last-Event-ID instead of
	// losing everything between connections.
	retained []Event
	rHead    int
	rN       int
}

// NewBus builds a bus whose events carry node as their origin.
func NewBus(node string) *Bus {
	return &Bus{
		node:     node,
		epoch:    time.Now().UnixNano(),
		subs:     make(map[*Sub]struct{}),
		retained: make([]Event, DefaultRetained),
	}
}

// Publish stamps ev (sequence, time, node) and delivers it to every
// subscriber without blocking. Nil-safe.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	if ev.UnixMS == 0 {
		ev.UnixMS = time.Now().UnixMilli()
	}
	if ev.Node == "" {
		ev.Node = b.node
	}
	if b.rN < len(b.retained) {
		b.retained[(b.rHead+b.rN)%len(b.retained)] = ev
		b.rN++
	} else {
		b.retained[b.rHead] = ev
		b.rHead = (b.rHead + 1) % len(b.retained)
	}
	subs := make([]*Sub, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	for _, s := range subs {
		s.push(ev)
	}
}

// Replay returns the retained events with Seq > after, oldest first, plus
// the number of events that were published after `after` but have already
// fallen out of the retained ring (the unresumable gap). A client that
// reconnects with a Last-Event-ID from a restarted bus (after beyond the
// current sequence) gets nothing and no gap; the live stream takes over.
// Nil-safe.
func (b *Bus) Replay(after uint64) ([]Event, uint64) {
	if b == nil {
		return nil, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if after >= b.seq || b.rN == 0 {
		return nil, 0
	}
	oldest := b.retained[b.rHead].Seq
	var gap uint64
	if oldest > after+1 {
		gap = oldest - after - 1
	}
	out := make([]Event, 0, b.rN)
	for i := 0; i < b.rN; i++ {
		ev := b.retained[(b.rHead+i)%len(b.retained)]
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	return out, gap
}

// Subscribe attaches a new subscriber with a ring of the given size
// (<= 0 takes DefaultSubBuffer). Returns nil on a nil bus.
func (b *Bus) Subscribe(buffer int) *Sub {
	if b == nil {
		return nil
	}
	if buffer <= 0 {
		buffer = DefaultSubBuffer
	}
	s := &Sub{
		bus:  b,
		buf:  make([]Event, buffer),
		wake: make(chan struct{}, 1),
	}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

func (b *Bus) unsubscribe(s *Sub) {
	if b == nil {
		return
	}
	b.mu.Lock()
	delete(b.subs, s)
	b.mu.Unlock()
}

// Subscribers returns the current subscriber count. Nil-safe.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// keepalive is how often the SSE handler emits a comment line when no
// events flow, so idle connections are detected and proxies keep the
// stream open.
const keepalive = 15 * time.Second

// ServeSSE streams the bus over w as Server-Sent Events until the request
// context ends. The first event is a hello carrying the node name and the
// bus's epoch; after that, every published event becomes an
// `id:`/`event:`/`data:` block. A client that reconnects with a
// Last-Event-ID header (or ?last_event_id= query parameter) first gets the
// retained events after that sequence number replayed; history already
// evicted from the retained ring is reported as the hello's gap field.
// Slow readers lose oldest events (never service throughput).
func ServeSSE(w http.ResponseWriter, r *http.Request, b *Bus) {
	if b == nil {
		http.Error(w, "event stream unavailable", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("last_event_id")
	}
	var after uint64
	resumed := false
	if lastID != "" {
		if v, err := strconv.ParseUint(lastID, 10, 64); err == nil {
			after, resumed = v, true
		}
	}

	// Subscribe before replaying so nothing published in between is lost;
	// the overlap is deduplicated below by sequence number.
	sub := b.Subscribe(0)
	defer sub.Close()

	var replayed []Event
	var gap uint64
	if resumed {
		replayed, gap = b.Replay(after)
	}

	hello := Event{
		UnixMS: time.Now().UnixMilli(),
		Type:   TypeHello,
		Node:   b.node,
		Gap:    gap,
		Epoch:  b.epoch,
	}
	if err := writeSSE(w, hello); err != nil {
		return
	}
	var maxSeq uint64
	for _, ev := range replayed {
		if err := writeSSE(w, ev); err != nil {
			return
		}
		maxSeq = ev.Seq
	}
	fl.Flush()

	ctx := r.Context()
	for {
		next, cancel := context.WithTimeout(ctx, keepalive)
		ev, ok := sub.Next(next)
		cancel()
		if !ok {
			if ctx.Err() != nil {
				return
			}
			// Keepalive window elapsed with no events: emit a comment so
			// the connection stays demonstrably alive.
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
			continue
		}
		if ev.Seq <= maxSeq {
			continue // already replayed
		}
		if err := writeSSE(w, ev); err != nil {
			return
		}
		fl.Flush()
	}
}

// writeSSE renders one event as an SSE block. Stamped events carry an id:
// line so clients can resume via Last-Event-ID; the unstamped hello does
// not.
func writeSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if ev.Seq > 0 {
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}

// Decoder reads Server-Sent Events produced by ServeSSE back into Events,
// one connection's worth; Follow is the reconnecting client built on it.
type Decoder struct {
	r *bufio.Reader
}

// NewDecoder wraps r for event decoding.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// Next returns the next event, skipping comments and blank lines. io.EOF
// signals a cleanly closed stream.
func (d *Decoder) Next() (Event, error) {
	var data string
	for {
		line, err := d.r.ReadString('\n')
		if err != nil {
			return Event{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && data != "":
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return Event{}, fmt.Errorf("stream: decoding event: %w", err)
			}
			return ev, nil
		}
	}
}

// A dropped Follow connection is retried after followMinBackoff, doubling
// to followMaxBackoff; the wait resets once events flow again.
const (
	followMinBackoff = 500 * time.Millisecond
	followMaxBackoff = 5 * time.Second
)

// Follow tails the ServeSSE stream at url through hc until ctx ends,
// handing fn the first hello and then every stamped event once, in order.
// A dropped connection is retried with backoff and resumed with
// Last-Event-ID, so the server replays what the outage missed from its
// retained ring; a replayed event at or below the watermark is dropped. A
// hello whose epoch differs from the previous connection's means the
// server restarted: the watermark resets and the next connection replays
// the new bus from its first event.
//
// Follow returns ctx.Err() once ctx ends (fn is not called after that),
// fn's error as soon as fn returns one, and an error naming the status
// when the server answers anything but 200: a server that is up and
// refuses is not retried.
func Follow(ctx context.Context, hc *http.Client, url string, fn func(Event) error) error {
	f := follower{hc: hc, url: url, fn: fn, backoff: followMinBackoff}
	for {
		retry, err := f.conn(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !retry {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(f.backoff):
		}
		f.backoff = min(2*f.backoff, followMaxBackoff)
	}
}

// follower is Follow's state across connections.
type follower struct {
	hc      *http.Client
	url     string
	fn      func(Event) error
	backoff time.Duration
	// after is the highest sequence number handed to fn; resume says to
	// send it as Last-Event-ID (until an event arrives, a tail is live-only).
	after  uint64
	resume bool
	// epoch is the latest hello's; greeted says the first hello went to fn.
	epoch   int64
	greeted bool
}

// conn holds one connection until it ends. retry is false when Follow must
// return err: a non-200 answer, an error from fn, or ctx's end.
func (f *follower) conn(ctx context.Context) (retry bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url, nil)
	if err != nil {
		return false, err
	}
	if f.resume {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(f.after, 10))
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("stream: %s answered %d", f.url, resp.StatusCode)
	}
	dec := NewDecoder(resp.Body)
	for {
		ev, err := dec.Next()
		if err != nil {
			return true, err
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		f.backoff = followMinBackoff
		switch {
		case ev.Type == TypeHello && f.greeted && ev.Epoch != f.epoch:
			f.epoch, f.after, f.resume = ev.Epoch, 0, true
			return true, fmt.Errorf("stream: %s restarted", f.url)
		case ev.Type == TypeHello:
			f.epoch = ev.Epoch
			if f.greeted {
				continue // one greeting per Follow, not per connection
			}
			f.greeted = true
		case ev.Seq <= f.after:
			continue // replayed across a reconnect: already handed on
		default:
			f.after, f.resume = ev.Seq, true
		}
		if err := f.fn(ev); err != nil {
			return false, err
		}
	}
}
