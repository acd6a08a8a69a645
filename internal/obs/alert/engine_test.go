package alert

import (
	"context"
	"testing"
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/obs/stream"
	"demandrace/internal/obs/tsdb"
)

// fakeSource is a hand-fed Source: tests set exactly the samples a rule
// should see, with full control of timestamps.
type fakeSource struct {
	series map[string]fakeSeries
}

type fakeSeries struct {
	kind    string
	samples []tsdb.Sample
}

func newFakeSource() *fakeSource {
	return &fakeSource{series: make(map[string]fakeSeries)}
}

func (f *fakeSource) set(metric, kind string, samples ...tsdb.Sample) {
	f.series[metric] = fakeSeries{kind: kind, samples: samples}
}

func (f *fakeSource) Samples(metric string, since time.Time) (string, []tsdb.Sample, bool) {
	s, ok := f.series[metric]
	if !ok {
		return "", nil, false
	}
	var cutoff int64
	if !since.IsZero() {
		cutoff = since.UnixMilli()
	}
	out := make([]tsdb.Sample, 0, len(s.samples))
	for _, sm := range s.samples {
		if sm.UnixMS >= cutoff {
			out = append(out, sm)
		}
	}
	return s.kind, out, true
}

// clock is a manually advanced test clock.
type clock struct{ t time.Time }

func newClock() *clock { return &clock{t: time.UnixMilli(1_700_000_000_000)} }

func (c *clock) now() time.Time               { return c.t }
func (c *clock) advance(d time.Duration)      { c.t = c.t.Add(d) }
func (c *clock) ms() int64                    { return c.t.UnixMilli() }
func (c *clock) sample(v float64) tsdb.Sample { return tsdb.Sample{UnixMS: c.ms(), Value: v} }

// drainEvents collects every event currently queued on the subscriber.
func drainEvents(t *testing.T, sub *stream.Sub, n int) []stream.Event {
	t.Helper()
	out := make([]stream.Event, 0, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ev, ok := sub.Next(ctx)
		cancel()
		if !ok {
			t.Fatalf("wanted %d events, got %d", n, len(out))
		}
		out = append(out, ev)
	}
	return out
}

func TestThresholdLifecycle(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	bus := stream.NewBus("n0")
	sub := bus.Subscribe(16)
	defer sub.Close()
	reg := obs.NewRegistry()

	eng, err := New(Config{
		Node: "n0",
		Rules: []Rule{{
			Name: "queue-deep", Kind: KindThreshold, Metric: "queue_depth",
			Op: ">=", Value: 10, For: Duration(10 * time.Second),
			Severity: SevCritical, Summary: "queue too deep",
		}},
		Source: src, Bus: bus, Registry: reg, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Below threshold: inactive.
	src.set("queue_depth", tsdb.KindGauge, clk.sample(3))
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("active below threshold = %+v", got)
	}

	// Breach: pending, no event yet (For has not elapsed).
	src.set("queue_depth", tsdb.KindGauge, clk.sample(12))
	eng.EvalNow()
	active := eng.Active()
	if len(active) != 1 || active[0].State != StatePending {
		t.Fatalf("active after breach = %+v, want one pending", active)
	}
	if p, f := eng.Counts(); p != 1 || f != 0 {
		t.Fatalf("counts = %d pending %d firing, want 1/0", p, f)
	}
	if v := reg.CounterValue(MetricFired); v != 0 {
		t.Fatalf("fired counter = %d before For elapsed", v)
	}

	// Still breaching past For: fires exactly once, stays firing on
	// subsequent ticks (deduplication).
	clk.advance(11 * time.Second)
	src.set("queue_depth", tsdb.KindGauge, clk.sample(15))
	eng.EvalNow()
	eng.EvalNow()
	eng.EvalNow()
	active = eng.Active()
	if len(active) != 1 || active[0].State != StateFiring {
		t.Fatalf("active past For = %+v, want one firing", active)
	}
	if active[0].Value != 15 || active[0].Threshold != 10 || active[0].Node != "n0" {
		t.Fatalf("alert payload = %+v", active[0])
	}
	if active[0].FiringSinceMS == 0 || active[0].SinceMS == 0 {
		t.Fatalf("alert timestamps missing: %+v", active[0])
	}
	if v := reg.CounterValue(MetricFired); v != 1 {
		t.Fatalf("fired counter = %d, want exactly 1", v)
	}
	if g := reg.Gauge(MetricFiring).Value(); g != 1 {
		t.Fatalf("firing gauge = %d, want 1", g)
	}

	// Recovery: resolves exactly once, moves to history.
	clk.advance(time.Second)
	src.set("queue_depth", tsdb.KindGauge, clk.sample(2))
	eng.EvalNow()
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("active after recovery = %+v", got)
	}
	hist := eng.History()
	if len(hist) != 1 || hist[0].State != StateResolved || hist[0].ResolvedMS == 0 {
		t.Fatalf("history = %+v, want one resolved", hist)
	}
	if v := reg.CounterValue(MetricResolved); v != 1 {
		t.Fatalf("resolved counter = %d, want exactly 1", v)
	}

	// Exactly one firing and one resolved event on the bus, in order.
	evs := drainEvents(t, sub, 2)
	if evs[0].Type != stream.TypeAlertFiring || evs[1].Type != stream.TypeAlertResolved {
		t.Fatalf("bus events = %s, %s", evs[0].Type, evs[1].Type)
	}
	for _, ev := range evs {
		if ev.Detail["rule"] != "queue-deep" || ev.Detail["severity"] != SevCritical {
			t.Fatalf("event detail = %+v", ev.Detail)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if ev, ok := sub.Next(ctx); ok {
		t.Fatalf("unexpected extra event %+v", ev)
	}
}

func TestPendingClearsSilently(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	bus := stream.NewBus("n0")
	sub := bus.Subscribe(16)
	defer sub.Close()

	eng, err := New(Config{
		Rules: []Rule{{
			Name: "r", Kind: KindThreshold, Metric: "g", Value: 1,
			For: Duration(time.Minute),
		}},
		Source: src, Bus: bus, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src.set("g", tsdb.KindGauge, clk.sample(5))
	eng.EvalNow() // pending
	clk.advance(10 * time.Second)
	src.set("g", tsdb.KindGauge, clk.sample(0))
	eng.EvalNow() // clears before For: silent reset
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("active = %+v", got)
	}
	if got := eng.History(); len(got) != 0 {
		t.Fatalf("history = %+v; a never-fired episode must not resolve", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if ev, ok := sub.Next(ctx); ok {
		t.Fatalf("pending reset published %+v", ev)
	}
}

func TestForZeroFiresImmediately(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Rules:  []Rule{{Name: "r", Kind: KindThreshold, Metric: "g", Value: 1}},
		Source: src, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src.set("g", tsdb.KindGauge, clk.sample(2))
	eng.EvalNow()
	active := eng.Active()
	if len(active) != 1 || active[0].State != StateFiring {
		t.Fatalf("active = %+v, want immediate firing", active)
	}
}

func TestMissingMetricResolvesFiring(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Rules:  []Rule{{Name: "r", Kind: KindThreshold, Metric: "g", Value: 1}},
		Source: src, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src.set("g", tsdb.KindGauge, clk.sample(2))
	eng.EvalNow()
	// The series disappears (restart, retention): missing data is not a
	// breach, so the episode resolves rather than firing forever.
	delete(src.series, "g")
	clk.advance(time.Second)
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("active = %+v after metric vanished", got)
	}
	if got := eng.History(); len(got) != 1 {
		t.Fatalf("history = %+v, want the resolved episode", got)
	}
}

func TestRateCounterSumsWindowDeltas(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Rules: []Rule{{
			Name: "hot", Kind: KindRate, Metric: "c",
			Op: ">=", Value: 10, Window: Duration(time.Minute),
		}},
		Source: src, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Two in-window deltas plus one stale sample outside the window.
	src.set("c", tsdb.KindCounter,
		tsdb.Sample{UnixMS: clk.ms() - 2*60_000, Value: 100},
		tsdb.Sample{UnixMS: clk.ms() - 30_000, Value: 6},
		tsdb.Sample{UnixMS: clk.ms() - 5_000, Value: 5},
	)
	eng.EvalNow()
	active := eng.Active()
	if len(active) != 1 || active[0].Value != 11 {
		t.Fatalf("active = %+v, want windowed sum 11", active)
	}
}

func TestRateCounterEmptyWindowIsZero(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Rules: []Rule{{
			// The ingest-stall shape: a known counter with nothing in the
			// window means a legitimate rate of zero, which == 0 matches.
			Name: "stalled", Kind: KindRate, Metric: "c",
			Op: "==", Value: 0, Window: Duration(time.Minute),
		}},
		Source: src, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src.set("c", tsdb.KindCounter, tsdb.Sample{UnixMS: clk.ms() - 10*60_000, Value: 50})
	eng.EvalNow()
	if got := eng.Active(); len(got) != 1 {
		t.Fatalf("active = %+v, want empty-window zero to match == 0", got)
	}
}

func TestRateGaugeNeedsTwoSamples(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Rules: []Rule{{
			Name: "growth", Kind: KindRate, Metric: "g",
			Op: ">", Value: 5, Window: Duration(time.Minute),
		}},
		Source: src, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src.set("g", tsdb.KindGauge, clk.sample(100))
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("one gauge sample has no rate, got %+v", got)
	}
	src.set("g", tsdb.KindGauge,
		tsdb.Sample{UnixMS: clk.ms() - 30_000, Value: 100},
		clk.sample(110),
	)
	eng.EvalNow()
	active := eng.Active()
	if len(active) != 1 || active[0].Value != 10 {
		t.Fatalf("active = %+v, want last-minus-first 10", active)
	}
}

func TestWhenGateSuspendsRule(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Rules: []Rule{{
			Name: "r", Kind: KindThreshold, Metric: "g", Value: 1,
			When: &Gate{Metric: "sessions", Op: ">", Value: 0},
		}},
		Source: src, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src.set("g", tsdb.KindGauge, clk.sample(5))
	src.set("sessions", tsdb.KindGauge, clk.sample(0))
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("gated rule fired while gate false: %+v", got)
	}
	src.set("sessions", tsdb.KindGauge, clk.sample(2))
	eng.EvalNow()
	if got := eng.Active(); len(got) != 1 {
		t.Fatalf("gated rule inactive while gate true: %+v", got)
	}
	// Gate drops again: the episode resolves.
	src.set("sessions", tsdb.KindGauge, clk.sample(0))
	clk.advance(time.Second)
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("gated rule stayed active after gate closed: %+v", got)
	}
}

func TestRatioMinCountGate(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Rules: []Rule{{
			Name: "collapse", Kind: KindRatio, Metric: "hits",
			Denominator: []string{"hits", "misses"},
			Op:          "<", Value: 0.5, Window: Duration(time.Minute), MinCount: 20,
		}},
		Source: src, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// 1 hit, 9 misses: ratio 0.1 < 0.5, but only 10 lookups — under the
	// traffic gate, no alert.
	src.set("hits", tsdb.KindCounter, clk.sample(1))
	src.set("misses", tsdb.KindCounter, clk.sample(9))
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("ratio fired under min_count: %+v", got)
	}
	src.set("hits", tsdb.KindCounter, clk.sample(2))
	src.set("misses", tsdb.KindCounter, clk.sample(38))
	eng.EvalNow()
	active := eng.Active()
	if len(active) != 1 || active[0].Value != 0.05 {
		t.Fatalf("active = %+v, want ratio 0.05", active)
	}
}

func TestBurnRateNeedsBothWindows(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	rule := Rule{
		Name: "burn", Kind: KindBurnRate,
		Metric: "breaches", Denominator: []string{"requests"},
		Value: 14, Target: 0.99,
		Window: Duration(5 * time.Minute), ShortWindow: Duration(time.Minute),
	}
	eng, err := New(Config{Rules: []Rule{rule}, Source: src, Now: clk.now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Sustained breaching in both windows: 50% breach rate against a 1%
	// budget is a 50x burn — well past 14x.
	longAgo := clk.ms() - 3*60_000 // in long window, outside short
	recent := clk.ms() - 10_000    // in both
	src.set("breaches", tsdb.KindCounter,
		tsdb.Sample{UnixMS: longAgo, Value: 50},
		tsdb.Sample{UnixMS: recent, Value: 50},
	)
	src.set("requests", tsdb.KindCounter,
		tsdb.Sample{UnixMS: longAgo, Value: 100},
		tsdb.Sample{UnixMS: recent, Value: 100},
	)
	eng.EvalNow()
	active := eng.Active()
	if len(active) != 1 {
		t.Fatalf("sustained burn did not alert: %+v", active)
	}
	if v := active[0].Value; v < 49 || v > 51 {
		t.Fatalf("reported burn = %v, want ~50", v)
	}

	// The spike ages out of the short window while traffic continues
	// clean: the short window vetoes and the alert resolves.
	src.set("breaches", tsdb.KindCounter,
		tsdb.Sample{UnixMS: longAgo, Value: 100},
	)
	src.set("requests", tsdb.KindCounter,
		tsdb.Sample{UnixMS: longAgo, Value: 100},
		tsdb.Sample{UnixMS: recent, Value: 100},
	)
	clk.advance(time.Second)
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("expired spike still alerting: %+v", got)
	}
}

func TestBurnRateMinCountGate(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	rule := Rule{
		Name: "burn", Kind: KindBurnRate,
		Metric: "breaches", Denominator: []string{"requests"},
		Value: 14, Target: 0.99, MinCount: 100,
		Window: Duration(5 * time.Minute), ShortWindow: Duration(time.Minute),
	}
	eng, err := New(Config{Rules: []Rule{rule}, Source: src, Now: clk.now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// 2 of 3 requests breached — a 67x burn, but 3 requests is noise.
	src.set("breaches", tsdb.KindCounter, clk.sample(2))
	src.set("requests", tsdb.KindCounter, clk.sample(3))
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("burn rule fired under min_count traffic: %+v", got)
	}
}

func TestHistoryBound(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Rules:  []Rule{{Name: "r", Kind: KindThreshold, Metric: "g", Value: 1}},
		Source: src, Now: clk.now,
		History: 2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 4; i++ {
		src.set("g", tsdb.KindGauge, clk.sample(5))
		eng.EvalNow()
		clk.advance(time.Second)
		src.set("g", tsdb.KindGauge, clk.sample(0))
		eng.EvalNow()
		clk.advance(time.Second)
	}
	hist := eng.History()
	if len(hist) != 2 {
		t.Fatalf("history kept %d entries, want bound 2", len(hist))
	}
	if hist[0].ResolvedMS < hist[1].ResolvedMS {
		t.Fatalf("history not newest-first: %+v", hist)
	}
}

func TestActiveOrdering(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Rules: []Rule{
			{Name: "warn-pending", Kind: KindThreshold, Metric: "a", Value: 1, For: Duration(time.Hour)},
			{Name: "crit-firing", Kind: KindThreshold, Metric: "b", Value: 1, Severity: SevCritical},
			{Name: "warn-firing", Kind: KindThreshold, Metric: "c", Value: 1},
		},
		Source: src, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, m := range []string{"a", "b", "c"} {
		src.set(m, tsdb.KindGauge, clk.sample(5))
	}
	eng.EvalNow()
	active := eng.Active()
	if len(active) != 3 {
		t.Fatalf("active = %+v", active)
	}
	want := []string{"crit-firing", "warn-firing", "warn-pending"}
	for i, name := range want {
		if active[i].Rule != name {
			t.Fatalf("active[%d] = %s, want %s (full: %+v)", i, active[i].Rule, name, active)
		}
	}
}

func TestDuplicateRuleNamesRejected(t *testing.T) {
	_, err := New(Config{
		Rules: []Rule{
			{Name: "r", Kind: KindThreshold, Metric: "a", Value: 1},
			{Name: "r", Kind: KindThreshold, Metric: "b", Value: 2},
		},
		Source: newFakeSource(),
	})
	if err == nil {
		t.Fatal("duplicate rule names accepted")
	}
}

// TestServiceDefaultsBurnRule drives the real compiled-in slo-fast-burn
// rule through its full lifecycle with synthetic SLO traffic.
func TestServiceDefaultsBurnRule(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	bus := stream.NewBus("svc")
	sub := bus.Subscribe(16)
	defer sub.Close()
	reg := obs.NewRegistry()

	eng, err := New(Config{
		Node:   "svc",
		Rules:  ServiceDefaults(0.99, 48),
		Source: src, Bus: bus, Registry: reg, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New with ServiceDefaults: %v", err)
	}

	// Healthy traffic: nothing alerts.
	src.set(obs.SvcSLORequests, tsdb.KindCounter, clk.sample(100))
	src.set(obs.SvcSLOBreaches, tsdb.KindCounter, clk.sample(0))
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("healthy traffic alerted: %+v", got)
	}

	// Every request breaching: burn = (1.0)/(0.01) = 100x > 14x, in both
	// windows. Pending first (For 15s), then firing.
	src.set(obs.SvcSLOBreaches, tsdb.KindCounter, clk.sample(100))
	eng.EvalNow()
	active := eng.Active()
	if len(active) != 1 || active[0].Rule != "slo-fast-burn" || active[0].State != StatePending {
		t.Fatalf("active = %+v, want pending slo-fast-burn", active)
	}
	clk.advance(20 * time.Second)
	src.set(obs.SvcSLORequests, tsdb.KindCounter,
		tsdb.Sample{UnixMS: clk.ms() - 20_000, Value: 100}, clk.sample(100))
	src.set(obs.SvcSLOBreaches, tsdb.KindCounter,
		tsdb.Sample{UnixMS: clk.ms() - 20_000, Value: 100}, clk.sample(100))
	eng.EvalNow()
	active = eng.Active()
	if len(active) != 1 || active[0].State != StateFiring || active[0].Severity != SevCritical {
		t.Fatalf("active = %+v, want firing critical slo-fast-burn", active)
	}

	// Recovery: breaches age out of both windows.
	clk.advance(6 * time.Minute)
	src.set(obs.SvcSLORequests, tsdb.KindCounter, clk.sample(100))
	src.set(obs.SvcSLOBreaches, tsdb.KindCounter, clk.sample(0))
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("recovered traffic still alerting: %+v", got)
	}
	evs := drainEvents(t, sub, 2)
	if evs[0].Type != stream.TypeAlertFiring || evs[1].Type != stream.TypeAlertResolved {
		t.Fatalf("events = %s, %s", evs[0].Type, evs[1].Type)
	}
}

// TestGatewayDefaultsRingRule drives the compiled-in ring-backend-evicted
// rule off a synthetic membership gauge.
func TestGatewayDefaultsRingRule(t *testing.T) {
	src := newFakeSource()
	clk := newClock()
	eng, err := New(Config{
		Node:   "gate",
		Rules:  GatewayDefaults(2, []string{"b0", "b1"}),
		Source: src, Now: clk.now,
	})
	if err != nil {
		t.Fatalf("New with GatewayDefaults: %v", err)
	}
	src.set(obs.GateRingMembers, tsdb.KindGauge, clk.sample(2))
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("full ring alerted: %+v", got)
	}
	src.set(obs.GateRingMembers, tsdb.KindGauge, clk.sample(1))
	eng.EvalNow()
	active := eng.Active()
	if len(active) != 1 || active[0].Rule != "ring-backend-evicted" || active[0].State != StateFiring {
		t.Fatalf("active = %+v, want firing ring-backend-evicted", active)
	}
	src.set(obs.GateRingMembers, tsdb.KindGauge, clk.sample(2))
	clk.advance(time.Second)
	eng.EvalNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("readmitted ring still alerting: %+v", got)
	}
	if got := eng.History(); len(got) != 1 || got[0].Rule != "ring-backend-evicted" {
		t.Fatalf("history = %+v", got)
	}
}

func TestEngineAgainstRealTSDB(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("depth").Set(50)
	db := tsdb.New(tsdb.Options{Registry: reg, Node: "n0", Interval: time.Second})
	eng, err := New(Config{
		Rules:  []Rule{{Name: "deep", Kind: KindThreshold, Metric: "depth", Op: ">=", Value: 10}},
		Source: db,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	db.SetOnTick(eng.EvalNow)
	db.CollectNow()
	active := eng.Active()
	if len(active) != 1 || active[0].Value != 50 {
		t.Fatalf("active = %+v, want firing off the tsdb tick", active)
	}
	reg.Gauge("depth").Set(0)
	db.CollectNow()
	if got := eng.Active(); len(got) != 0 {
		t.Fatalf("active = %+v after gauge dropped", got)
	}
}

func TestDocShape(t *testing.T) {
	src := newFakeSource()
	eng, err := New(Config{
		Node:   "n0",
		Rules:  []Rule{{Name: "r", Kind: KindThreshold, Metric: "g", Value: 1}},
		Source: src,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	doc := eng.Doc()
	if doc.Node != "n0" || len(doc.Rules) != 1 || len(doc.Active) != 0 || len(doc.History) != 0 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Rules[0].Op != ">" || doc.Rules[0].Severity != SevWarning {
		t.Fatalf("served rules not normalized: %+v", doc.Rules[0])
	}
}
