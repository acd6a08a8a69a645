package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
)

// fakeRing is a scriptable placement: a fixed member order walked from a
// per-key start offset, skipping down members — enough to model owner
// choice and successor promotion without real hashing.
type fakeRing struct {
	mu      sync.Mutex
	members []string
	down    map[string]bool
	startOf map[string]int // key -> index into members
}

func newFakeRing(members ...string) *fakeRing {
	return &fakeRing{members: members, down: map[string]bool{}, startOf: map[string]int{}}
}

func (f *fakeRing) place(key string, start int) {
	f.mu.Lock()
	f.startOf[key] = start
	f.mu.Unlock()
}

func (f *fakeRing) setDown(m string, down bool) {
	f.mu.Lock()
	f.down[m] = down
	f.mu.Unlock()
}

func (f *fakeRing) Lookup(key string, n int) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	start := f.startOf[key]
	var out []string
	for i := 0; i < len(f.members) && len(out) < n; i++ {
		m := f.members[(start+i)%len(f.members)]
		if !f.down[m] {
			out = append(out, m)
		}
	}
	return out
}

// fakePeer is an in-memory result store with a reachability switch.
type fakePeer struct {
	mu   sync.Mutex
	data map[string][]byte
	dead bool
}

func newFakePeer() *fakePeer { return &fakePeer{data: map[string][]byte{}} }

var errUnreachable = errors.New("peer unreachable")

func (p *fakePeer) Get(_ context.Context, key string) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return nil, errUnreachable
	}
	d, ok := p.data[key]
	if !ok {
		return nil, errors.New("not found")
	}
	return append([]byte(nil), d...), nil
}

func (p *fakePeer) Put(_ context.Context, key string, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return errUnreachable
	}
	p.data[key] = append([]byte(nil), data...)
	return nil
}

func (p *fakePeer) Keys(_ context.Context) ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return nil, errUnreachable
	}
	out := make([]string, 0, len(p.data))
	for k := range p.data {
		out = append(out, k)
	}
	return out, nil
}

func (p *fakePeer) has(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.data[key]
	return ok
}

type fleet struct {
	ring  *fakeRing
	peers map[string]*fakePeer
}

func newFleet(members ...string) *fleet {
	f := &fleet{ring: newFakeRing(members...), peers: map[string]*fakePeer{}}
	for _, m := range members {
		f.peers[m] = newFakePeer()
	}
	return f
}

func (f *fleet) peer(name string) Peer {
	p := f.peers[name]
	if p == nil {
		return nil
	}
	return p
}

func (f *fleet) replicator(factor int, reg *obs.Registry, bus *stream.Bus) *Replicator {
	return New(Config{
		Factor:   factor,
		Ring:     f.ring,
		Peer:     f.peer,
		Registry: reg,
		Bus:      bus,
	})
}

// drain runs queued replication passes synchronously (the tests never
// Start the workers; they call replicate directly for determinism).
func drain(r *Replicator) {
	for {
		select {
		case key := <-r.queue:
			r.noteDequeued(key)
			r.replicate(context.Background(), key)
		default:
			return
		}
	}
}

func TestFactorOneDisables(t *testing.T) {
	if r := New(Config{Factor: 1}); r != nil {
		t.Fatal("factor 1 built a replicator")
	}
	var r *Replicator
	r.Track("k", "a") // all nil-safe
	r.OnEvict("a")
	r.OnReadmit("a")
	r.Resync()
	r.Start()
	r.Stop()
	if _, _, ok := r.Repair(context.Background(), "k", ""); ok {
		t.Fatal("nil replicator repaired")
	}
	if s := r.StatsSnapshot(); s.Factor != 0 {
		t.Fatalf("nil stats = %+v", s)
	}
}

// TestWriteThrough: tracking a sealed key copies it from the owner to its
// successor and the write counters move.
func TestWriteThrough(t *testing.T) {
	f := newFleet("a", "b", "c")
	f.ring.place("k1", 0) // chain a, b
	f.peers["a"].data["k1"] = []byte(`{"result":1}`)
	reg := obs.NewRegistry()
	r := f.replicator(2, reg, nil)

	r.Track("k1", "a")
	drain(r)

	if !f.peers["b"].has("k1") {
		t.Fatal("successor b did not receive the replica")
	}
	if f.peers["c"].has("k1") {
		t.Fatal("non-chain member c received a replica")
	}
	if got := string(f.peers["b"].data["k1"]); got != `{"result":1}` {
		t.Fatalf("replica bytes = %q", got)
	}
	if v := reg.CounterValue(obs.ReplicaWrites); v != 1 {
		t.Fatalf("writes = %d, want 1", v)
	}
	if s := r.StatsSnapshot(); s.Tracked != 1 || s.UnderReplicated != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestReadRepair: with the owner down, Repair serves the bytes from the
// successor, publishes one replica_repair event, and counts the repair.
func TestReadRepair(t *testing.T) {
	f := newFleet("a", "b", "c")
	f.ring.place("k1", 0)
	f.peers["a"].data["k1"] = []byte(`{"result":1}`)
	reg := obs.NewRegistry()
	bus := stream.NewBus("test")
	sub := bus.Subscribe(4)
	defer sub.Close()
	r := f.replicator(2, reg, bus)
	r.Track("k1", "a")
	drain(r)

	// Owner dies but the probe has not evicted it yet — the realistic
	// read-repair window.
	f.peers["a"].dead = true

	data, source, ok := r.Repair(context.Background(), "k1", "a")
	if !ok || source != "b" {
		t.Fatalf("Repair = %q ok=%v, want source b", source, ok)
	}
	if string(data) != `{"result":1}` {
		t.Fatalf("repaired bytes = %q", data)
	}
	if v := reg.CounterValue(obs.ReplicaReadRepairs); v != 1 {
		t.Fatalf("read repairs = %d, want 1", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ev, okEv := sub.Next(ctx)
	if !okEv || ev.Type != stream.TypeReplicaRepair {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Detail["source"] != "b" || ev.Detail["owner"] != "a" {
		t.Fatalf("repair event detail = %v", ev.Detail)
	}

	// Post-eviction window: the ring has dropped a, so b leads the chain;
	// repairing a read that failed against a still finds b's copy.
	f.ring.setDown("a", true)
	if _, source, ok := r.Repair(context.Background(), "k1", "a"); !ok || source != "b" {
		t.Fatalf("post-eviction Repair = %q ok=%v, want source b", source, ok)
	}
}

// TestHandoff: eviction re-replicates the lost member's keys to the new
// chain from survivors; readmission streams the shard back, and the
// restarted owner ends up byte-identical.
func TestHandoff(t *testing.T) {
	f := newFleet("a", "b", "c")
	f.ring.place("k1", 0) // chain a, b — c is the standby
	f.peers["a"].data["k1"] = []byte(`{"result":1}`)
	r := f.replicator(2, nil, nil)
	r.Track("k1", "a")
	drain(r)

	// Owner a dies. The chain becomes b, c: c must be back-filled from b.
	f.peers["a"].dead = true
	f.ring.setDown("a", true)
	r.OnEvict("a")
	drain(r)
	if !f.peers["c"].has("k1") {
		t.Fatal("standby c not back-filled after owner eviction")
	}
	if s := r.StatsSnapshot(); s.UnderReplicated != 0 {
		t.Fatalf("still under-replicated after handoff: %+v", s)
	}

	// a restarts empty (fresh disk) and is readmitted: the shard streams
	// back and a holds its keys again.
	f.peers["a"] = newFakePeer()
	f.ring.setDown("a", false)
	r.OnReadmit("a")
	drain(r)
	if got := string(f.peers["a"].data["k1"]); got != `{"result":1}` {
		t.Fatalf("restarted owner holds %q, want the original bytes", got)
	}
}

// TestUnderReplicatedDegraded: when no survivor holds the bytes, the key
// stays under-replicated and the snapshot degrades after the handoff
// deadline.
func TestUnderReplicatedDegraded(t *testing.T) {
	f := newFleet("a", "b")
	f.ring.place("k1", 0)
	now := time.Unix(1000, 0)
	r := New(Config{
		Factor:          2,
		Ring:            f.ring,
		Peer:            f.peer,
		HandoffDeadline: 5 * time.Second,
		Now:             func() time.Time { return now },
	})
	// Track with no holder actually serving the bytes: replication cannot
	// converge.
	r.Track("k1", "a")
	f.peers["a"].dead = true
	drain(r)

	s := r.StatsSnapshot()
	if s.UnderReplicated != 1 {
		t.Fatalf("under-replicated = %d, want 1", s.UnderReplicated)
	}
	if s.Degraded {
		t.Fatal("degraded before the handoff deadline")
	}
	now = now.Add(6 * time.Second)
	if s := r.StatsSnapshot(); !s.Degraded {
		t.Fatal("not degraded past the handoff deadline")
	}

	// Recovery: the holder comes back, resync converges, degradation ends.
	f.peers["a"].dead = false
	f.peers["a"].data["k1"] = []byte("x")
	r.Resync()
	drain(r)
	if s := r.StatsSnapshot(); s.UnderReplicated != 0 || s.Degraded {
		t.Fatalf("stats after recovery = %+v", s)
	}
}

// TestQueueDrops: a full task queue drops (and counts) instead of
// blocking the caller.
func TestQueueDrops(t *testing.T) {
	f := newFleet("a", "b")
	reg := obs.NewRegistry()
	r := New(Config{Factor: 2, QueueDepth: 1, Ring: f.ring, Peer: f.peer, Registry: reg})
	r.Track("k1", "a")
	r.Track("k2", "a")
	r.Track("k3", "a")
	if v := reg.CounterValue(obs.ReplicaQueueDrops); v < 1 {
		t.Fatalf("drops = %d, want >= 1", v)
	}
}

// TestSeed imports a peer's existing keys into tracking.
func TestSeed(t *testing.T) {
	f := newFleet("a", "b")
	f.ring.place("k1", 0)
	f.peers["a"].data["k1"] = []byte("x")
	r := f.replicator(2, nil, nil)
	if err := r.Seed(context.Background(), "a"); err != nil {
		t.Fatalf("Seed: %v", err)
	}
	drain(r)
	if !f.peers["b"].has("k1") {
		t.Fatal("seeded key not replicated")
	}
}

// TestStartStop: the background workers drain tracked keys on their own.
func TestStartStop(t *testing.T) {
	f := newFleet("a", "b")
	f.ring.place("k1", 0)
	f.peers["a"].data["k1"] = []byte("x")
	r := New(Config{Factor: 2, Ring: f.ring, Peer: f.peer, ResyncInterval: 10 * time.Millisecond})
	r.Start()
	defer r.Stop()
	r.Track("k1", "a")
	deadline := time.Now().Add(2 * time.Second)
	for !f.peers["b"].has("k1") {
		if time.Now().After(deadline) {
			t.Fatal("worker never replicated the tracked key")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countingRing counts the placement lookups a replicator makes.
type countingRing struct {
	*fakeRing
	mu      sync.Mutex
	lookups int
}

func (c *countingRing) Lookup(key string, n int) []string {
	c.mu.Lock()
	c.lookups++
	c.mu.Unlock()
	return c.fakeRing.Lookup(key, n)
}

// TestPassLookupsBounded: a replication pass looks up its own key's chain,
// not every tracked key's, so draining N keys costs O(N) lookups.
func TestPassLookupsBounded(t *testing.T) {
	f := newFleet("a", "b", "c")
	ring := &countingRing{fakeRing: f.ring}
	r := New(Config{Factor: 2, Ring: ring, Peer: f.peer})
	const keys = 200
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		f.ring.place(key, i%3)
		f.peers[f.ring.Lookup(key, 1)[0]].data[key] = []byte("x")
		r.Track(key, f.ring.Lookup(key, 1)[0])
	}
	ring.lookups = 0
	drain(r)
	if perPass := float64(ring.lookups) / keys; perPass > 2 {
		t.Fatalf("%d lookups over %d passes (%.1f per pass), want at most 2 per pass", ring.lookups, keys, perPass)
	}
	if s := r.StatsSnapshot(); s.Tracked != keys || s.UnderReplicated != 0 {
		t.Fatalf("stats after drain = %+v", s)
	}
}
