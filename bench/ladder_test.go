package main

import (
	"strings"
	"testing"

	"demandrace/internal/demand"
	"demandrace/internal/program"
	"demandrace/internal/runner"
	"demandrace/internal/service"
	"demandrace/internal/workloads"
)

// TestLadderTopMatchesRunner pins the ladder's copy of the executor: on
// every evaluation kernel under every mirrored policy, the top rung must
// reproduce runner.Run's cycles, races, sharing and layer statistics.
func TestLadderTopMatchesRunner(t *testing.T) {
	var cases []ladderCase
	for _, k := range suiteKernels() {
		for _, pol := range []demand.PolicyKind{demand.Off, demand.Continuous, demand.HITMDemand} {
			p := k.Build(workloads.DefaultConfig())
			cases = append(cases, ladderCase{build: func() *program.Program { return p }, cfg: runner.DefaultConfig().WithPolicy(pol)})
		}
	}
	// The job and trace-ingest corpora use their own configurations.
	job, err := jobCase(service.Request{Kernel: "kmeans", Scale: jobScale, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, job)
	traces, err := genTraceCorpus(7, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range traces {
		cases = append(cases, c.ladderCase)
	}
	for _, c := range cases {
		p := c.build()
		_, ok, err := referenceRun(p, c.cfg, nil)
		if err != nil {
			t.Fatalf("%s under %v: %v", p.Name, c.cfg.Demand.Kind, err)
		}
		if !ok {
			t.Errorf("%s under %v: the ladder's top rung differs from runner.Run", p.Name, c.cfg.Demand.Kind)
		}
	}
}

// TestLadderRungsRun checks that every rung runs, and that each rung below
// the top leaves the layers above it untouched.
func TestLadderRungsRun(t *testing.T) {
	k, _ := workloads.ByName("histogram")
	p := k.Build(workloads.DefaultConfig())
	cfg := runner.DefaultConfig().WithPolicy(demand.Continuous)
	for r := 0; r < numRungs; r++ {
		rep, err := climb(p, cfg, r)
		if err != nil {
			t.Fatalf("rung %s: %v", rungLayer[r], err)
		}
		if (rep.Cache.Accesses > 0) != (r >= rungCache) {
			t.Errorf("rung %s: %d cache accesses", rungLayer[r], rep.Cache.Accesses)
		}
		if (rep.Detector.Reads > 0) != (r >= rungDetector) {
			t.Errorf("rung %s: %d detector reads", rungLayer[r], rep.Detector.Reads)
		}
		if (rep.ToolCycles > 0) != (r >= rungCost) {
			t.Errorf("rung %s: %d tool cycles", rungLayer[r], rep.ToolCycles)
		}
	}
}

// TestLadderRejectsUnmirroredPolicies: a policy whose work the ladder has
// no rung for must fail loudly rather than be attributed wrongly.
func TestLadderRejectsUnmirroredPolicies(t *testing.T) {
	k, _ := workloads.ByName("histogram")
	p := k.Build(workloads.DefaultConfig())
	for _, pol := range []demand.PolicyKind{demand.PageDemand, demand.WatchDemand, demand.Hybrid, demand.Sampling} {
		_, err := climb(p, runner.DefaultConfig().WithPolicy(pol), rungCost)
		if err == nil || !strings.Contains(err.Error(), "not mirrored") {
			t.Errorf("policy %v: got %v, want a not-mirrored error", pol, err)
		}
	}
	cfg := runner.DefaultConfig()
	cfg.Lockset = true
	if _, err := climb(p, cfg, rungCost); err == nil {
		t.Error("lockset run: want an error")
	}
}
