// Package detector implements the software happens-before data-race
// detector that stands in for the race engine inside Intel Inspector XE.
//
// The default engine is FastTrack (Flanagan & Freund, PLDI 2009): per-thread
// vector clocks, per-variable shadow state that stays in compact epoch form
// until a variable becomes read-shared, and O(1) fast paths for the
// overwhelmingly common cases. The hot path is layered, cheapest test
// first, and each layer is counted in Stats so the mix is observable in
// production:
//
//  1. same-epoch hit — the access repeats the last one exactly;
//  2. owned hit — every prior access to the word was by this thread
//     (SmartTrack-style ownership shortcut: a thread's own epochs are
//     always ordered before its clock, so no happens-before check runs);
//  3. epoch fallback — O(1) epoch-vs-clock comparisons;
//  4. VC fallback — the word is read-shared and the full reader set
//     (inline epochs, or a spilled vector clock) is consulted.
//
// Shadow state lives in flat value-type pages (internal/shadow) and region
// labels are interned uint32 IDs (internal/intern), so the steady state of
// an analyzed access allocates nothing. A full-vector-clock variant
// (DJIT+-style) is selectable for the shadow-representation ablation; both
// report the same races.
//
// The detector is deliberately ignorant of the demand-driven machinery: it
// analyzes exactly the accesses it is handed. The demand controller decides
// which accesses those are, and that selection — not anything here — is
// where the paper's accuracy/performance tradeoff lives.
package detector

import (
	"fmt"
	"slices"

	"demandrace/internal/intern"
	"demandrace/internal/mem"
	"demandrace/internal/obs"
	"demandrace/internal/program"
	"demandrace/internal/shadow"
	"demandrace/internal/syncmodel"
	"demandrace/internal/vclock"
)

// RaceKind classifies the access pair of a report.
type RaceKind uint8

const (
	// WriteWrite is a write racing a prior write.
	WriteWrite RaceKind = iota
	// ReadWrite is a write racing a prior read.
	ReadWrite
	// WriteRead is a read racing a prior write.
	WriteRead
)

func (k RaceKind) String() string {
	switch k {
	case WriteWrite:
		return "write-write"
	case ReadWrite:
		return "read-write"
	case WriteRead:
		return "write-read"
	}
	return fmt.Sprintf("RaceKind(%d)", uint8(k))
}

// Report describes one detected race.
type Report struct {
	// Addr is the word the race is on.
	Addr mem.Addr
	// Kind is the access-pair class.
	Kind RaceKind
	// Cur is the thread performing the second (detecting) access.
	Cur vclock.TID
	// Prev is the thread of the conflicting earlier access. For races
	// against an inflated read set, Prev is one representative reader.
	Prev vclock.TID
	// PrevTime is the earlier access's logical time at Prev.
	PrevTime vclock.Time
	// CurRegion and PrevRegion carry the program regions of the two
	// accesses when the program annotates them (empty otherwise). They are
	// materialized from the detector's region-ID table only when a race is
	// reported; shadow memory never stores strings.
	CurRegion  string
	PrevRegion string
}

func (r Report) String() string {
	s := fmt.Sprintf("race %s on %v: t%d vs t%d@%d", r.Kind, r.Addr, r.Cur, r.Prev, r.PrevTime)
	if r.CurRegion != "" || r.PrevRegion != "" {
		s += fmt.Sprintf(" [%s vs %s]", orUnknown(r.CurRegion), orUnknown(r.PrevRegion))
	}
	return s
}

func orUnknown(s string) string {
	if s == "" {
		return "?"
	}
	return s
}

// Options configures a detector.
type Options struct {
	// FullVC selects the DJIT+-style full-vector-clock shadow
	// representation instead of FastTrack's adaptive epochs.
	FullVC bool
	// MaxReportsPerAddr caps reports per word; 0 means 1 (first race per
	// variable, matching how commercial tools de-duplicate). Negative
	// means unlimited.
	MaxReportsPerAddr int
}

// Stats counts detector work, used by the cost model, the fast-path
// ablation, and the service's observability surfaces. For the epoch engine
// every read and write lands in exactly one of the four path counters:
// Reads+Writes = SameEpochHits + OwnedHits + EpochFallbacks + VCFallbacks.
type Stats struct {
	Reads  uint64
	Writes uint64
	// SameEpochHits counts accesses repeating the word's last access
	// exactly (layer 1: one compare).
	SameEpochHits uint64
	// OwnedHits counts accesses to words whose entire history belongs to
	// the accessing thread (layer 2: ownership shortcut, no HB checks).
	OwnedHits uint64
	// EpochFallbacks counts accesses resolved with O(1) epoch-vs-clock
	// comparisons (layer 3), including the reads that inflate a word.
	EpochFallbacks uint64
	// VCFallbacks counts accesses that consulted a read-shared word's full
	// reader set (layer 4: inline epochs or a spilled vector clock).
	VCFallbacks uint64
	// ReadInflations counts epoch→read-shared transitions; ReadSpills
	// counts the subset whose reader set outgrew the inline slots and
	// moved to a pooled vector clock.
	ReadInflations uint64
	ReadSpills     uint64
	SyncOps        uint64
	Races          uint64
	Suppressed     uint64 // races beyond the per-address report cap
}

// Detector is a happens-before race detector over simulated threads. Not
// safe for concurrent use; the scheduler serializes all calls.
type Detector struct {
	opt     Options
	threads []*vclock.VC
	// regions holds each thread's current region as an ID into names.
	regions []uint32
	names   *intern.Table
	sync    *syncmodel.Table
	table   *shadow.Table
	reports []Report
	perAddr map[mem.Addr]int
	stats   Stats
	// growths counts in-place dimension growths after New (see grow).
	growths int
	// trace records race-report telemetry; nil disables recording.
	trace *obs.Tracer
}

// New builds a detector for a program with numThreads threads and the given
// sync-object counts. The counts pre-size the detector; they do not bound
// it. An event naming a thread, mutex or semaphore beyond them grows the
// detector in place, so New(0, 0, 0, opt) analyzes a trace of unknown shape
// with the same reports and stats as a detector sized for it up front.
func New(numThreads, mutexes, semaphores int, opt Options) *Detector {
	d := &Detector{
		opt:     opt,
		names:   intern.New(),
		sync:    syncmodel.NewTable(0, 0),
		table:   shadow.NewTable(),
		perAddr: make(map[mem.Addr]int),
	}
	d.grow(numThreads, mutexes, semaphores)
	d.growths = 0 // pre-sizing is not growth
	return d
}

// grow is the cold path behind the first reference to a thread, mutex or
// semaphore beyond the current dimensions: it extends them in place to at
// least the given counts. Vector clocks zero-extend (an unseen thread's
// component is 0), so growing late changes no happens-before answer.
func (d *Detector) grow(threads, mutexes, semaphores int) {
	d.growths++
	for i := len(d.threads); i < threads; i++ {
		c := vclock.New(threads)
		// Each thread starts at local time 1 so epochs are never zero and
		// thread starts are mutually concurrent (all pre-start work is the
		// root's, which our programs do not model).
		c.Set(vclock.TID(i), 1)
		d.threads = append(d.threads, c)
		d.regions = append(d.regions, 0)
	}
	d.sync.Grow(mutexes, semaphores)
}

// clock returns thread t's clock, growing the detector on t's first
// reference.
func (d *Detector) clock(t vclock.TID) *vclock.VC {
	if int(t) >= len(d.threads) {
		d.grow(int(t)+1, 0, 0)
	}
	return d.threads[t]
}

// mutex returns mutex id's release clock, growing on its first reference.
func (d *Detector) mutex(id program.SyncID) *vclock.VC {
	if int(id) >= d.sync.Mutexes() {
		d.grow(0, int(id)+1, 0)
	}
	return d.sync.Mutex(id)
}

// sem returns semaphore id's clock, growing on its first reference.
func (d *Detector) sem(id program.SyncID) *vclock.VC {
	if int(id) >= d.sync.Semaphores() {
		d.grow(0, 0, int(id)+1)
	}
	return d.sync.Sem(id)
}

// Growths returns how many times an event grew the detector past the
// dimensions it was built with.
func (d *Detector) Growths() int { return d.growths }

// ForProgram builds a detector sized for p.
func ForProgram(p *program.Program, opt Options) *Detector {
	return New(p.NumThreads(), p.Mutexes, p.Semaphores, opt)
}

// Reports returns the detected races in detection order.
func (d *Detector) Reports() []Report { return d.reports }

// Stats returns a snapshot of the work counters.
func (d *Detector) Stats() Stats { return d.stats }

// SetTracer installs the telemetry tracer (nil disables tracing).
func (d *Detector) SetTracer(t *obs.Tracer) { d.trace = t }

// ClockOf exposes thread t's clock for tests and the trace annotator.
func (d *Detector) ClockOf(t vclock.TID) *vclock.VC { return d.threads[t] }

// SetRegion records thread t's current program region; subsequent accesses
// by t are attributed to it in reports. The label is interned once; repeat
// labels cost a map probe.
func (d *Detector) SetRegion(t vclock.TID, name string) {
	d.clock(t)
	d.regions[t] = d.names.ID(name)
}

// RegionTable exposes the detector's region-ID intern table so other run
// artifacts (the cycle profiler's site buckets, report aggregation) can
// share one ID namespace with shadow memory.
func (d *Detector) RegionTable() *intern.Table { return d.names }

func (d *Detector) epoch(t vclock.TID) vclock.Epoch {
	return vclock.MakeEpoch(t, d.threads[t].Get(t))
}

// report materializes and records one race. prevRegion is the interned
// region ID carried by the conflicting shadow slot.
func (d *Detector) report(addr mem.Addr, kind RaceKind, cur, prev vclock.TID,
	ptime vclock.Time, prevRegion uint32) {
	d.stats.Races++
	limit := d.opt.MaxReportsPerAddr
	if limit == 0 {
		limit = 1
	}
	if limit > 0 && d.perAddr[addr] >= limit {
		d.stats.Suppressed++
		return
	}
	d.perAddr[addr]++
	d.reports = append(d.reports, Report{
		Addr: addr, Kind: kind, Cur: cur, Prev: prev, PrevTime: ptime,
		CurRegion:  d.names.Str(d.regions[cur]),
		PrevRegion: d.names.Str(prevRegion),
	})
	d.trace.Emit(obs.KindRace, int(cur), -1, uint64(addr), int64(prev), kind.String())
}

// owned reports whether every recorded access to s belongs to thread t —
// the SmartTrack-style ownership test. A thread's own epochs are always
// ordered before its current clock (own components never decrease), so an
// owned access can skip every happens-before comparison. The caller must
// have excluded the read-shared case.
func owned(s *shadow.State, t vclock.TID) bool {
	return (s.W == vclock.None || s.W.TIDIs(t)) &&
		(s.R == vclock.None || s.R.TIDIs(t))
}

// OnRead analyzes a read of addr by thread t.
func (d *Detector) OnRead(t vclock.TID, addr mem.Addr) {
	d.stats.Reads++
	addr = mem.WordOf(addr)
	s := d.table.Ref(addr)
	ct := d.clock(t)
	if d.opt.FullVC {
		d.fullVCRead(t, addr, s, ct)
		return
	}
	e := d.epoch(t)
	if s.R == e {
		d.stats.SameEpochHits++
		return
	}
	if s.R != vclock.ReadShared && owned(s, t) {
		// Ownership fast path: prior write and read (if any) are t's own,
		// hence ordered; record the read epoch and return.
		d.stats.OwnedHits++
		s.R = e
		s.RRegion = d.regions[t]
		return
	}
	// Write-read race: the last write must happen-before this read.
	if !s.W.LEQ(ct) {
		d.report(addr, WriteRead, t, s.W.TIDOf(), s.W.TimeOf(), s.WRegion)
	}
	if s.R == vclock.ReadShared {
		d.stats.VCFallbacks++
		if s.SetReader(t, e.TimeOf(), &d.table.Pool) {
			d.stats.ReadSpills++
		}
		s.RRegion = d.regions[t]
		return
	}
	d.stats.EpochFallbacks++
	if s.R == vclock.None || s.R.LEQ(ct) {
		// Exclusive read: the previous read happens-before us, so the
		// epoch alone still summarizes the read history.
		s.R = e
		s.RRegion = d.regions[t]
		return
	}
	// Concurrent reader: inflate to the shared read set.
	d.stats.ReadInflations++
	s.InflateRead()
	if s.SetReader(t, e.TimeOf(), &d.table.Pool) {
		d.stats.ReadSpills++
	}
	s.RRegion = d.regions[t]
}

// OnWrite analyzes a write of addr by thread t.
func (d *Detector) OnWrite(t vclock.TID, addr mem.Addr) {
	d.stats.Writes++
	addr = mem.WordOf(addr)
	s := d.table.Ref(addr)
	ct := d.clock(t)
	if d.opt.FullVC {
		d.fullVCWrite(t, addr, s, ct)
		return
	}
	e := d.epoch(t)
	if s.W == e {
		d.stats.SameEpochHits++
		return
	}
	if s.R != vclock.ReadShared && owned(s, t) {
		// Ownership fast path: no foreign access to order against.
		d.stats.OwnedHits++
		s.W = e
		s.WRegion = d.regions[t]
		return
	}
	// Write-write race.
	if !s.W.LEQ(ct) {
		d.report(addr, WriteWrite, t, s.W.TIDOf(), s.W.TimeOf(), s.WRegion)
	}
	// Read-write race.
	if s.R == vclock.ReadShared {
		d.stats.VCFallbacks++
		if !s.ReadersLEQ(ct) {
			prev, ptime := s.FirstConcurrentReader(ct)
			d.report(addr, ReadWrite, t, prev, ptime, s.RRegion)
		}
		// The write overwrites the read history (FastTrack SharedWrite);
		// a spilled reader clock returns to the pool.
		s.DropReaders(&d.table.Pool)
	} else {
		d.stats.EpochFallbacks++
		if s.R != vclock.None && !s.R.LEQ(ct) {
			d.report(addr, ReadWrite, t, s.R.TIDOf(), s.R.TimeOf(), s.RRegion)
		}
	}
	s.W = e
	s.WRegion = d.regions[t]
}

// fullVCRead is the DJIT+-style read rule: full per-thread write history.
func (d *Detector) fullVCRead(t vclock.TID, addr mem.Addr, s *shadow.State, ct *vclock.VC) {
	if s.WVC == nil {
		s.WVC = vclock.New(0)
	}
	if !s.WVC.LEQ(ct) {
		prev, ptime := vclock.FirstConcurrent(s.WVC, ct)
		d.report(addr, WriteRead, t, prev, ptime, s.WRegion)
	}
	if s.RVC == nil {
		s.RVC = vclock.New(0)
	}
	s.R = vclock.ReadShared
	s.RVC.Set(t, ct.Get(t))
	s.RRegion = d.regions[t]
}

// fullVCWrite is the DJIT+-style write rule.
func (d *Detector) fullVCWrite(t vclock.TID, addr mem.Addr, s *shadow.State, ct *vclock.VC) {
	if s.WVC == nil {
		s.WVC = vclock.New(0)
	}
	if !s.WVC.LEQ(ct) {
		prev, ptime := vclock.FirstConcurrent(s.WVC, ct)
		d.report(addr, WriteWrite, t, prev, ptime, s.WRegion)
	}
	if s.RVC != nil && !s.RVC.LEQ(ct) {
		prev, ptime := vclock.FirstConcurrent(s.RVC, ct)
		d.report(addr, ReadWrite, t, prev, ptime, s.RRegion)
	}
	s.WVC.Set(t, ct.Get(t))
	s.WRegion = d.regions[t]
}

// OnLock records t acquiring mutex id: t's clock absorbs the lock's release
// clock.
func (d *Detector) OnLock(t vclock.TID, id program.SyncID) {
	d.stats.SyncOps++
	d.clock(t).Join(d.mutex(id))
}

// OnUnlock records t releasing mutex id: the lock's release clock becomes
// t's clock and t advances its epoch.
func (d *Detector) OnUnlock(t vclock.TID, id program.SyncID) {
	d.stats.SyncOps++
	ct := d.clock(t)
	d.mutex(id).Assign(ct)
	ct.Tick(t)
}

// OnSignal records a semaphore post: release semantics.
func (d *Detector) OnSignal(t vclock.TID, id program.SyncID) {
	d.stats.SyncOps++
	ct := d.clock(t)
	d.sem(id).Join(ct)
	ct.Tick(t)
}

// OnWait records a semaphore wait completing: acquire semantics.
func (d *Detector) OnWait(t vclock.TID, id program.SyncID) {
	d.stats.SyncOps++
	d.clock(t).Join(d.sem(id))
}

// OnAtomicStore records a release store to an atomic variable.
func (d *Detector) OnAtomicStore(t vclock.TID, addr mem.Addr) {
	d.stats.SyncOps++
	ct := d.clock(t)
	d.sync.Atomic(addr).Join(ct)
	ct.Tick(t)
}

// OnAtomicLoad records an acquire load from an atomic variable.
func (d *Detector) OnAtomicLoad(t vclock.TID, addr mem.Addr) {
	d.stats.SyncOps++
	d.clock(t).Join(d.sync.Atomic(addr))
}

// OnBarrierRelease records a barrier releasing: every participant's clock
// becomes the join of all participants, then each advances its epoch. A
// party listed more than once joins and ticks once, so an event costs at
// most O(threads²) however long its list.
func (d *Detector) OnBarrierRelease(parties []vclock.TID) {
	d.stats.SyncOps++
	for _, p := range parties {
		d.clock(p)
	}
	parties = distinct(parties)
	joined := vclock.New(len(d.threads))
	for _, p := range parties {
		joined.Join(d.threads[p])
	}
	for _, p := range parties {
		d.threads[p].Assign(joined)
		d.threads[p].Tick(p)
	}
}

// distinct returns parties without repeats. The scheduler lists parties
// strictly ascending, and such a list is returned as is, without
// allocating; any other list (a trace may carry one) is sorted into a copy.
func distinct(parties []vclock.TID) []vclock.TID {
	for i := 1; i < len(parties); i++ {
		if parties[i] <= parties[i-1] {
			out := slices.Clone(parties)
			slices.Sort(out)
			return slices.Compact(out)
		}
	}
	return parties
}
