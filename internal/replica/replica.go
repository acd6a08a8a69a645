// Package replica keeps sealed analysis results alive across backend
// loss: every result key the gateway sees committed gets copied from its
// ring owner to the R−1 successors on the consistent-hash ring, so
// killing the owner does not force the fleet to recompute the shard —
// reads fall through to a replica (read-repair) and membership changes
// trigger re-replication (handoff).
//
// The replicator is deliberately asynchronous and best-effort: copies ride
// a bounded task queue drained by background workers, and a full queue
// drops the task (counted) rather than backpressuring the submit path —
// durability converges via the periodic resync sweep, which re-enqueues
// every key below its replication factor. Results are immutable and
// content-addressed, so copying is idempotent and there is no
// invalidation problem: any holder's bytes are THE bytes.
package replica

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"

	"demandrace/internal/obs"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/obs/stream"
)

// Placement is the ring view the replicator plans against — satisfied by
// *cluster.Ring.
type Placement interface {
	// Lookup returns up to n distinct active members in ring order from
	// key's position: the owner first, then its successors.
	Lookup(key string, n int) []string
}

// Peer is one backend's replication surface: the key-addressed result
// endpoints (GET/PUT /v1/cache/{key}, GET /v1/cache). Implemented over
// HTTP by the cluster tier and by in-memory fakes in tests.
type Peer interface {
	// Get fetches the result bytes stored under key, or an error
	// (including not-found).
	Get(ctx context.Context, key string) ([]byte, error)
	// Put stores the result bytes under key. Idempotent.
	Put(ctx context.Context, key string, data []byte) error
	// Keys lists every result key the peer holds.
	Keys(ctx context.Context) ([]string, error)
}

// workers is how many goroutines drain the task queue; opTimeout bounds
// one peer Get or Put.
const (
	workers   = 2
	opTimeout = 10 * time.Second
)

// Config shapes a Replicator.
type Config struct {
	// Factor is the replication factor R: each key is kept on its owner
	// plus R−1 ring successors. Values <= 1 disable replication.
	Factor int
	// QueueDepth bounds the pending-copy task queue (default 1024).
	QueueDepth int
	// ResyncInterval is the period of the anti-entropy sweep that
	// re-enqueues under-replicated keys (default 2s).
	ResyncInterval time.Duration
	// HandoffDeadline is how long keys may stay under-replicated after a
	// membership change before the replication /healthz subsystem reports
	// degraded (default 15s).
	HandoffDeadline time.Duration
	// Ring places keys. Required.
	Ring Placement
	// Peer resolves a member name to its replication surface, nil for
	// unknown or unreachable members. Required.
	Peer func(name string) Peer
	// Registry, when set, receives the replica_* metrics.
	Registry *obs.Registry
	// Bus, when set, receives replica_repair events.
	Bus *stream.Bus
	// Log, when set, records replication activity.
	Log *slog.Logger
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// entry is the replicator's knowledge of one tracked key.
type entry struct {
	holders map[string]bool // members believed to hold the bytes
}

// Replicator tracks sealed result keys and drives them toward their
// replication factor. A nil *Replicator is a valid "replication off"
// instance; every method is nil-safe.
type Replicator struct {
	cfg Config

	mu      sync.Mutex
	keys    map[string]*entry
	pending map[string]bool // keys with a queued task (dedup)
	under   int             // cached under-replicated count
	underAt time.Time       // when under first became nonzero

	queue  chan string
	wg     sync.WaitGroup
	cancel context.CancelFunc

	cWrites      *obs.Counter
	cWriteErrors *obs.Counter
	cRepairs     *obs.Counter
	cDrops       *obs.Counter
	gQueue       *obs.Gauge
	gTracked     *obs.Gauge
	gUnder       *obs.Gauge
}

// New builds a replicator, or nil when cfg.Factor <= 1 (replication off).
func New(cfg Config) *Replicator {
	if cfg.Factor <= 1 {
		return nil
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.ResyncInterval <= 0 {
		cfg.ResyncInterval = 2 * time.Second
	}
	if cfg.HandoffDeadline <= 0 {
		cfg.HandoffDeadline = 15 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Log == nil {
		cfg.Log = olog.Discard()
	}
	r := &Replicator{
		cfg:     cfg,
		keys:    make(map[string]*entry),
		pending: make(map[string]bool),
		queue:   make(chan string, cfg.QueueDepth),
	}
	if reg := cfg.Registry; reg != nil {
		r.cWrites = reg.Counter(obs.ReplicaWrites)
		r.cWriteErrors = reg.Counter(obs.ReplicaWriteErrors)
		r.cRepairs = reg.Counter(obs.ReplicaReadRepairs)
		r.cDrops = reg.Counter(obs.ReplicaQueueDrops)
		r.gQueue = reg.Gauge(obs.ReplicaQueueDepth)
		r.gTracked = reg.Gauge(obs.ReplicaTracked)
		r.gUnder = reg.Gauge(obs.ReplicaUnderReplicated)
	}
	return r
}

// Factor returns the configured replication factor (0 when off). Nil-safe.
func (r *Replicator) Factor() int {
	if r == nil {
		return 0
	}
	return r.cfg.Factor
}

// Start launches the queue workers and the anti-entropy sweep. Nil-safe.
func (r *Replicator) Start() {
	if r == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := 0; i < workers; i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case key := <-r.queue:
					r.noteDequeued(key)
					r.replicate(ctx, key)
				}
			}
		}()
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.cfg.ResyncInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				r.Resync()
			}
		}
	}()
}

// Stop halts the workers. Nil-safe, idempotent.
func (r *Replicator) Stop() {
	if r == nil || r.cancel == nil {
		return
	}
	r.cancel()
	r.wg.Wait()
	r.cancel = nil
}

// Track registers a sealed result held by member and queues it for
// replication to the rest of its replica chain. Nil-safe.
func (r *Replicator) Track(key, member string) {
	if r == nil || key == "" {
		return
	}
	r.mu.Lock()
	e := r.keys[key]
	if e == nil {
		e = &entry{holders: make(map[string]bool, r.cfg.Factor)}
		r.keys[key] = e
	}
	if member != "" {
		e.holders[member] = true
	}
	r.refreshGaugesLocked()
	r.mu.Unlock()
	r.enqueue(key)
}

// enqueue queues one key for a replication pass, deduplicating against
// tasks already in flight and dropping (counted) when the queue is full.
func (r *Replicator) enqueue(key string) {
	r.mu.Lock()
	if r.pending[key] {
		r.mu.Unlock()
		return
	}
	r.pending[key] = true
	r.mu.Unlock()
	select {
	case r.queue <- key:
		if r.gQueue != nil {
			r.gQueue.Set(int64(len(r.queue)))
		}
	default:
		r.mu.Lock()
		delete(r.pending, key)
		r.mu.Unlock()
		if r.cDrops != nil {
			r.cDrops.Inc()
		}
	}
}

// noteDequeued clears a key's pending mark once a worker picks it up.
func (r *Replicator) noteDequeued(key string) {
	r.mu.Lock()
	delete(r.pending, key)
	r.mu.Unlock()
	if r.gQueue != nil {
		r.gQueue.Set(int64(len(r.queue)))
	}
}

// chain is the replica set current placement assigns to key: the owner
// plus Factor−1 successors.
func (r *Replicator) chain(key string) []string {
	return r.cfg.Ring.Lookup(key, r.cfg.Factor)
}

// replicate runs one convergence pass for key: fetch the bytes from some
// holder and copy them to every chain member that lacks them. Remembered
// holders are tried as sources first, but every desired member is probed
// too — a restarted owner whose disk survived (or whose crash made us
// forget it) is rediscovered here instead of being re-pushed to. A pass
// looks up only its own key's chain; the under-replication count, which
// needs every tracked key's, is recounted by Resync and StatsSnapshot.
func (r *Replicator) replicate(ctx context.Context, key string) {
	desired := r.chain(key)
	r.mu.Lock()
	e := r.keys[key]
	if e == nil || len(desired) == 0 {
		r.mu.Unlock()
		return
	}
	sources := make([]string, 0, len(e.holders)+len(desired))
	for m := range e.holders {
		sources = append(sources, m)
	}
	sort.Strings(sources)
	need := false
	for _, m := range desired {
		if !e.holders[m] {
			need = true
		}
		if !contains(sources, m) {
			sources = append(sources, m)
		}
	}
	r.mu.Unlock()
	if !need {
		return
	}

	data, src := r.fetch(ctx, key, sources)
	if data == nil {
		// No reachable holder: leave the key under-replicated; the resync
		// sweep retries after membership settles.
		return
	}
	r.mu.Lock()
	e.holders[src] = true
	r.mu.Unlock()
	for _, m := range desired {
		r.mu.Lock()
		have := e.holders[m]
		r.mu.Unlock()
		if have {
			continue
		}
		p := r.cfg.Peer(m)
		if p == nil {
			continue
		}
		if r.cWrites != nil {
			r.cWrites.Inc()
		}
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		err := p.Put(opCtx, key, data)
		cancel()
		if err != nil {
			if r.cWriteErrors != nil {
				r.cWriteErrors.Inc()
			}
			r.cfg.Log.Warn("replica write failed", "key", key, "target", m, "error", err.Error())
			continue
		}
		r.mu.Lock()
		e.holders[m] = true
		r.mu.Unlock()
		r.cfg.Log.Info("replica written", "key", key, "source", src, "target", m)
	}
}

// fetch pulls key's bytes from the first reachable source.
func (r *Replicator) fetch(ctx context.Context, key string, sources []string) ([]byte, string) {
	for _, m := range sources {
		p := r.cfg.Peer(m)
		if p == nil {
			continue
		}
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		data, err := p.Get(opCtx, key)
		cancel()
		if err == nil && data != nil {
			return data, m
		}
		// A holder that cannot produce the bytes is not a holder.
		r.mu.Lock()
		if e := r.keys[key]; e != nil {
			delete(e.holders, m)
		}
		r.mu.Unlock()
	}
	return nil, ""
}

// Repair serves a read whose routed backend (avoid) missed or was
// unreachable: it walks key's current replica chain — and any other
// remembered holder — skipping avoid, returns the first hit, and queues
// the chain for back-fill so the failed member recovers the bytes once it
// is reachable again. ok is false when no replica held the bytes.
// Nil-safe.
func (r *Replicator) Repair(ctx context.Context, key, avoid string) (data []byte, source string, ok bool) {
	if r == nil || key == "" {
		return nil, "", false
	}
	candidates := r.chain(key)
	r.mu.Lock()
	if e := r.keys[key]; e != nil {
		for m := range e.holders {
			if !contains(candidates, m) {
				candidates = append(candidates, m)
			}
		}
	}
	r.mu.Unlock()
	missed := avoid
	if missed == "" && len(candidates) > 0 {
		missed = candidates[0]
	}
	for _, m := range candidates {
		if m == avoid {
			continue
		}
		p := r.cfg.Peer(m)
		if p == nil {
			continue
		}
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		data, err := p.Get(opCtx, key)
		cancel()
		if err != nil || data == nil {
			continue
		}
		if r.cRepairs != nil {
			r.cRepairs.Inc()
		}
		r.cfg.Bus.Publish(stream.Event{
			Type: stream.TypeReplicaRepair,
			Detail: map[string]string{
				"key":    key,
				"owner":  missed,
				"source": m,
			},
		})
		r.cfg.Log.Info("read repair", "key", key, "owner", missed, "source", m)
		// The repair proved m holds the bytes; remember that and queue the
		// chain (including the failed member, once reachable) for back-fill.
		r.Track(key, m)
		return data, m, true
	}
	return nil, "", false
}

// OnEvict reacts to a member leaving the ring: it no longer counts as a
// holder, and every key whose replica chain it was in is queued for
// re-replication from the survivors. Nil-safe.
func (r *Replicator) OnEvict(member string) {
	if r == nil {
		return
	}
	var requeue []string
	r.mu.Lock()
	for key, e := range r.keys {
		if e.holders[member] {
			delete(e.holders, member)
			requeue = append(requeue, key)
		}
	}
	r.refreshGaugesLocked()
	r.mu.Unlock()
	for _, key := range requeue {
		r.enqueue(key)
	}
	if len(requeue) > 0 {
		r.cfg.Log.Info("member evicted; re-replicating", "member", member, "keys", len(requeue))
	}
}

// OnReadmit reacts to a member rejoining: every tracked key whose current
// chain includes it is queued, streaming its shard back. Nil-safe.
func (r *Replicator) OnReadmit(member string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.keys))
	for key := range r.keys {
		keys = append(keys, key)
	}
	r.mu.Unlock()
	n := 0
	for _, key := range keys {
		if contains(r.chain(key), member) {
			r.enqueue(key)
			n++
		}
	}
	if n > 0 {
		r.cfg.Log.Info("member readmitted; streaming shard back", "member", member, "keys", n)
	}
}

// Resync is the anti-entropy sweep: every tracked key below its
// replication factor is re-enqueued. Nil-safe.
func (r *Replicator) Resync() {
	if r == nil {
		return
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.keys))
	for key := range r.keys {
		keys = append(keys, key)
	}
	r.mu.Unlock()
	for _, key := range keys {
		if r.underReplicated(key) {
			r.enqueue(key)
		}
	}
	r.settleAll()
}

// Seed imports a peer's key list (e.g. at startup) so pre-existing store
// contents participate in replication. Nil-safe.
func (r *Replicator) Seed(ctx context.Context, member string) error {
	if r == nil {
		return nil
	}
	p := r.cfg.Peer(member)
	if p == nil {
		return nil
	}
	keys, err := p.Keys(ctx)
	if err != nil {
		return err
	}
	for _, key := range keys {
		r.Track(key, member)
	}
	return nil
}

// underReplicated reports whether key's chain is missing holders.
func (r *Replicator) underReplicated(key string) bool {
	desired := r.chain(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.keys[key]
	if e == nil {
		return false
	}
	for _, m := range desired {
		if !e.holders[m] {
			return true
		}
	}
	return false
}

// settleAll recounts under-replicated keys and refreshes the gauges.
func (r *Replicator) settleAll() {
	counts := r.countUnder()
	r.mu.Lock()
	r.applyUnderLocked(counts)
	r.mu.Unlock()
}

// countUnder counts tracked keys whose current chain is missing holders.
// Takes and releases the lock per key to avoid holding it across chain().
func (r *Replicator) countUnder() int {
	r.mu.Lock()
	keys := make([]string, 0, len(r.keys))
	for key := range r.keys {
		keys = append(keys, key)
	}
	r.mu.Unlock()
	n := 0
	for _, key := range keys {
		if r.underReplicated(key) {
			n++
		}
	}
	return n
}

// applyUnderLocked updates the cached under-replication state. Caller
// holds r.mu.
func (r *Replicator) applyUnderLocked(under int) {
	if under > 0 && r.under == 0 {
		r.underAt = r.cfg.Now()
	}
	if under == 0 {
		r.underAt = time.Time{}
	}
	r.under = under
	r.refreshGaugesLocked()
}

// refreshGaugesLocked pushes the tracked/under-replicated gauges. Caller
// holds r.mu.
func (r *Replicator) refreshGaugesLocked() {
	if r.gTracked != nil {
		r.gTracked.Set(int64(len(r.keys)))
	}
	if r.gUnder != nil {
		r.gUnder.Set(int64(r.under))
	}
}

// Stats is the replication snapshot served in /v1/stats and /healthz.
type Stats struct {
	// Factor is the configured replication factor (0 = off).
	Factor int `json:"factor"`
	// Tracked counts sealed result keys under management.
	Tracked int `json:"tracked"`
	// UnderReplicated counts tracked keys currently below Factor.
	UnderReplicated int `json:"under_replicated"`
	// Queue is the pending replication task count.
	Queue int `json:"queue"`
	// Degraded is true when keys have been under-replicated for longer
	// than the handoff deadline.
	Degraded bool `json:"degraded"`
}

// StatsSnapshot returns the current replication state. Nil-safe (zero
// Stats when replication is off).
func (r *Replicator) StatsSnapshot() Stats {
	if r == nil {
		return Stats{}
	}
	under := r.countUnder()
	r.mu.Lock()
	r.applyUnderLocked(under)
	s := Stats{
		Factor:          r.cfg.Factor,
		Tracked:         len(r.keys),
		UnderReplicated: r.under,
		Queue:           len(r.queue),
		Degraded:        r.under > 0 && r.cfg.Now().Sub(r.underAt) > r.cfg.HandoffDeadline,
	}
	r.mu.Unlock()
	return s
}

// Holders returns the members believed to hold key, sorted (tests and
// diagnostics). Nil-safe.
func (r *Replicator) Holders(key string) []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.keys[key]
	if e == nil {
		return nil
	}
	out := make([]string, 0, len(e.holders))
	for m := range e.holders {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func contains(list []string, m string) bool {
	for _, x := range list {
		if x == m {
			return true
		}
	}
	return false
}
