package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"demandrace/internal/cache"
	"demandrace/internal/demand"
	"demandrace/internal/obs"
	"demandrace/internal/prof"
	"demandrace/internal/sched"
	"demandrace/internal/trace"
	"demandrace/internal/vclock"
	"demandrace/internal/workloads"
)

// laneConfigs is every policy at its default operating point, followed by
// lanes that vary each per-lane knob the experiments sweep.
func laneConfigs() []Config {
	var cfgs []Config
	for _, k := range demand.Policies() {
		c := DefaultConfig().WithPolicy(k)
		c.Demand.SampleRate = 0.05 // read by the sampling policy only
		cfgs = append(cfgs, c)
	}
	vary := func(k demand.PolicyKind, edit func(*Config)) {
		c := DefaultConfig().WithPolicy(k)
		edit(&c)
		cfgs = append(cfgs, c)
	}
	vary(demand.HITMDemand, func(c *Config) { c.PMU.SampleAfter = 4 })
	vary(demand.HITMDemand, func(c *Config) { c.PMU.Skid = 20 })
	vary(demand.HITMDemand, func(c *Config) { c.PMU.DropRate, c.PMU.Seed = 0.3, 7 })
	vary(demand.Hybrid, func(c *Config) { c.PMU.SampleAfter, c.PMU.Skid = 2, 5 })
	vary(demand.HITMDemand, func(c *Config) { c.Demand.Scope = demand.ScopeSelf })
	vary(demand.HITMDemand, func(c *Config) { c.Demand.Scope = demand.ScopePair })
	vary(demand.HITMDemand, func(c *Config) { c.Demand.Adaptive = true })
	vary(demand.HITMDemand, func(c *Config) { c.Demand.SyncTrigger = true })
	vary(demand.Sampling, func(c *Config) { c.Demand.SampleRate, c.Demand.Seed = 0.1, 3 })
	vary(demand.Continuous, func(c *Config) { c.Lockset, c.Deadlock = true, true })
	vary(demand.HITMDemand, func(c *Config) { c.Lockset, c.Deadlock = true, true })
	return cfgs
}

func reportJSON(t *testing.T, r *Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLanesMatchSoloRuns is the differential check behind the shared
// execution: every lane of one RunConfigs call must report exactly what
// an independent Run of its configuration reports.
func TestLanesMatchSoloRuns(t *testing.T) {
	cfgs := laneConfigs()
	kernels := append(workloads.Suite("phoenix"), workloads.Suite("parsec")...)
	for _, k := range kernels {
		t.Run(k.Name, func(t *testing.T) {
			p := k.Build(workloads.Config{Threads: 4, Scale: 1})
			lanes, err := RunConfigs(p, cfgs...)
			if err != nil {
				t.Fatal(err)
			}
			if len(lanes) != len(cfgs) {
				t.Fatalf("%d reports for %d lanes", len(lanes), len(cfgs))
			}
			for i, cfg := range cfgs {
				solo := mustRun(t, p, cfg)
				if got, want := reportJSON(t, lanes[i]), reportJSON(t, solo); got != want {
					t.Errorf("lane %d (%v) differs from its solo run:\nlane %s\nsolo %s",
						i, cfg.Demand.Kind, got, want)
				}
			}
		})
	}
}

func TestRunPoliciesMatchesSoloRuns(t *testing.T) {
	p := racyLoop(40)
	cfg := DefaultConfig()
	// RunPolicies derives every lane from one config, so even a placement
	// function (which RunConfigs cannot compare) is shared.
	cfg.Sched.CtxOf = func(t vclock.TID) cache.Context { return cache.Context(int(t) % 2) }
	cfg.Demand.SampleRate = 0.05
	kinds := demand.Policies()
	reps, err := RunPolicies(p, cfg, kinds...)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range kinds {
		if got, want := reportJSON(t, reps[i]), reportJSON(t, mustRun(t, p, cfg.WithPolicy(k))); got != want {
			t.Errorf("%v: RunPolicies lane differs from Run:\n%s\n%s", k, got, want)
		}
	}
}

func TestRunConfigsRejectsDifferentExecutions(t *testing.T) {
	p := racyLoop(5)
	base := DefaultConfig()
	moesi := DefaultConfig()
	moesi.Cache.Protocol = cache.MOESI
	quantum := DefaultConfig()
	quantum.Sched.Quantum = 4
	random := DefaultConfig()
	random.Sched.Policy = sched.RandomInterleave
	placed := DefaultConfig()
	placed.Sched.CtxOf = func(t vclock.TID) cache.Context { return 0 }
	for name, other := range map[string]Config{
		"cache protocol": moesi, "sched quantum": quantum, "sched policy": random, "placement": placed,
	} {
		if reps, err := RunConfigs(p, base, other); err == nil || reps != nil {
			t.Errorf("%s: RunConfigs accepted lanes with different executions (err %v)", name, err)
		}
	}
	// Zero fields normalize to the defaults, so they share an execution.
	if _, err := RunConfigs(p, base, Config{}); err != nil {
		t.Errorf("zero config should normalize to the default execution: %v", err)
	}
}

func TestRunConfigsRejectsSharedObservers(t *testing.T) {
	p := racyLoop(5)
	for name, set := range map[string]func(*Config){
		"Trace":  func(c *Config) { c.Trace = obs.NewTracer() },
		"Prof":   func(c *Config) { c.Prof = prof.New(100) },
		"Tracer": func(c *Config) { c.Tracer = trace.NewRecorder("x") },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		if _, err := RunConfigs(p, cfg, cfg.WithPolicy(demand.Continuous)); err == nil {
			t.Errorf("two lanes sharing one %s were accepted", name)
		}
	}
	// A metrics registry only accumulates commuting counters; sharing it
	// is allowed.
	cfg := DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	if _, err := RunConfigs(p, cfg, cfg.WithPolicy(demand.Continuous)); err != nil {
		t.Errorf("lanes sharing a registry: %v", err)
	}
	if got := cfg.Metrics.CounterValue("ddrace_runs_total"); got != 2 {
		t.Errorf("runs_total = %d, want one per lane", got)
	}
}

func TestRunConfigsCanceled(t *testing.T) {
	k, _ := workloads.ByName("histogram")
	p := k.Build(workloads.Config{Threads: 4, Scale: 1})
	var cfgs []Config
	for _, c := range laneConfigs() {
		cfgs = append(cfgs, c.normalized())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reps, err := execute(ctx, p, cfgs)
	if reps != nil {
		t.Fatalf("canceled run produced %d reports", len(reps))
	}
	var ie *sched.InterruptedError
	if !errors.As(err, &ie) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a *sched.InterruptedError wrapping context.Canceled", err)
	}
}

// observed is everything a lane's observers collected.
type observed struct {
	events []obs.Event
	folded string
	ops    *trace.Trace
	report string
}

// observedConfig is kind at its defaults with every per-lane observer attached.
func observedConfig(kind demand.PolicyKind) Config {
	cfg := DefaultConfig().WithPolicy(kind)
	cfg.Trace = obs.NewTracer()
	cfg.Prof = prof.New(64)
	cfg.Tracer = trace.NewRecorder("regioned-loop")
	return cfg
}

func collect(t *testing.T, cfg Config, r *Report) observed {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Profile.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	return observed{events: cfg.Trace.Events(), folded: buf.String(), ops: cfg.Tracer.Trace(), report: reportJSON(t, r)}
}

// TestLaneObserversMatchSoloRuns runs two lanes with telemetry, profiling
// and op recording on both: each lane's observers must see what they see
// when the lane's configuration runs alone, stamped with its own clock.
func TestLaneObserversMatchSoloRuns(t *testing.T) {
	p := regionedLoop(120)
	kinds := []demand.PolicyKind{demand.HITMDemand, demand.Continuous}
	var cfgs []Config
	for _, k := range kinds {
		cfgs = append(cfgs, observedConfig(k))
	}
	reps, err := RunConfigs(p, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range kinds {
		solo := observedConfig(k)
		want := collect(t, solo, mustRun(t, p, solo))
		got := collect(t, cfgs[i], reps[i])
		if len(got.events) == 0 || got.folded == "" {
			t.Fatalf("%v: lane collected no telemetry or profile", k)
		}
		if !reflect.DeepEqual(got.events, want.events) {
			t.Errorf("%v: lane telemetry differs from the solo run (%d vs %d events)", k, len(got.events), len(want.events))
		}
		if got.folded != want.folded {
			t.Errorf("%v: lane profile differs:\n%s\nvs solo\n%s", k, got.folded, want.folded)
		}
		if !reflect.DeepEqual(got.ops, want.ops) {
			t.Errorf("%v: lane op recording differs from the solo run", k)
		}
		if got.report != want.report {
			t.Errorf("%v: lane report differs:\n%s\n%s", k, got.report, want.report)
		}
	}
}

func TestRunPoliciesNoKinds(t *testing.T) {
	reps, err := RunPolicies(racyLoop(3), DefaultConfig())
	if err != nil || len(reps) != 0 {
		t.Fatalf("RunPolicies with no kinds = %d reports, %v", len(reps), err)
	}
}
