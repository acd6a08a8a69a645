package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareLogs compares two -record logs metric by metric and workload by
// workload. For each pairing it prints both sides' medians and quartiles
// and a verdict against the metric's bound:
//
//   - unresolved: either side's spread (quartile distance over median) is
//     wider than the bound, and not every "after" run beats every "before"
//     run;
//   - worse: the after median is worse than the before median by more
//     than the bound;
//   - better: the after median is better by more than the before side's
//     own spread, and the after run wins at least nine in ten of the pairs
//     (runs paired in log order);
//   - unchanged: otherwise.
func compareLogs(w io.Writer, specPath, beforePath, afterPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	before, refBefore, err := readRecords(beforePath)
	if err != nil {
		return err
	}
	after, refAfter, err := readRecords(afterPath)
	if err != nil {
		return err
	}
	var names []string
	for n := range before {
		if _, ok := after[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no workload", beforePath, afterPath)
	}
	mb, ma := median(refBefore), median(refAfter)
	fmt.Fprintf(w, "host reference: before %.3f ms, after %.3f ms (%+.1f%%); a drift wider than a bound voids that bound's verdicts\n",
		mb, ma, 100*ratio(ma-mb, mb))
	fmt.Fprintf(w, "%-13s %-14s %30s %30s %8s  %s\n", "workload", "metric", "before median [q1, q3]", "after median [q1, q3]", "delta", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			b, a := before[wl][m.Name], after[wl][m.Name]
			if len(b) == 0 || len(a) == 0 {
				continue
			}
			v, delta := verdict(b, a, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-13s %-14s %30s %30s %+7.1f%%  %s\n", wl, m.Name, summary(b), summary(a), 100*delta, v)
		}
	}
	return nil
}

// readRecords loads a -record log: workload → metric → values in log
// order, and every run's host reference. Traced runs are skipped; they
// carry no end-to-end metrics.
func readRecords(path string) (map[string]map[string][]float64, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	var refs []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		refs = append(refs, rec.HostRefMS)
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for n, v := range rec.Result.Metrics {
			out[rec.Workload][n] = append(out[rec.Workload][n], v.Value)
		}
	}
	return out, refs, sc.Err()
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict judges after against before; delta is the relative change of
// the median, positive when after is better.
func verdict(before, after []float64, higherIsBetter bool, bound float64) (string, float64) {
	mb, ma := median(before), median(after)
	delta := ratio(ma-mb, mb)
	better := func(x, y float64) bool { return x < y }
	if higherIsBetter {
		better = func(x, y float64) bool { return x > y }
	} else {
		delta = -delta
	}
	allBetter := true
	for _, a := range after {
		for _, b := range before {
			allBetter = allBetter && better(a, b)
		}
	}
	if spread(before) > bound || spread(after) > bound {
		if allBetter {
			return "better", delta
		}
		return "unresolved", delta
	}
	if delta < -bound {
		return "worse", delta
	}
	pairs, wins := min(len(before), len(after)), 0
	for i := 0; i < pairs; i++ {
		if better(after[i], before[i]) {
			wins++
		}
	}
	if delta > spread(before) && wins*10 >= pairs*9 {
		return "better", delta
	}
	return "unchanged", delta
}
