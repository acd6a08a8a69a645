package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecMatchesCode: BENCHMARK.json declares exactly the workloads and
// metrics this package runs and reports, and setup_s has the widest bound.
func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code reports %d", len(s.EndToEnd), len(endToEnd))
	}
	widest := 0.0
	for i, m := range s.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end[%d] = %s %s %s, code has %s %s %s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		widest = math.Max(widest, m.Bound)
	}
	if s.EndToEnd[0].Name != "setup_s" || s.EndToEnd[0].Bound != widest {
		t.Error("setup_s must be declared first, with the widest bound")
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code reports %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %s %s %s, code has %s %s %s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}

// TestSmoke runs every workload untraced and traced in the short shape and
// checks the result lines: correct, nothing failed, and every declared
// metric present with its declared unit.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	units := func(ms []metric) map[string]string {
		u := map[string]string{}
		for _, m := range ms {
			u[m.name] = m.unit
		}
		return u
	}
	for _, w := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w, "--seed", "2", "--seconds", "0.2", "--trace", traced, "-short", "-out", t.TempDir()}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := units(endToEnd)
			if traced == "1" {
				want = units(perLayer)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if v, ok := res.Metrics[name]; !ok || v.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w, traced, name, v, unit)
				}
			}
			if traced == "0" {
				for _, m := range s.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 7}, 1.75, 9.25},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	before := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(before))
		for i, x := range before {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		after []float64
		want  string
	}{
		{scale(1), "unchanged"},
		{scale(1.3), "worse"},
		{scale(0.8), "better"},
		{[]float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "unresolved"},
	} {
		if got, _ := verdict(before, c.after, false, 0.1); got != c.want {
			t.Errorf("verdict(lower is better, %v) = %s, want %s", c.after, got, c.want)
		}
	}
	if got, _ := verdict(before, scale(0.8), true, 0.1); got != "worse" {
		t.Errorf("verdict(higher is better, 0.8x) = %s, want worse", got)
	}
}
