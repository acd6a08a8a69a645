// Command bench is the repository's end-to-end benchmark. One invocation
// sets up one seeded workload against in-process instances of the system,
// measures it for a fixed time, checks every output it measured, and prints
// its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// is repeated with spans recorded and the metrics are the per-layer ones.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash bench/run.sh --workload node-jobs --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 1
//	bash bench/run.sh ... -record runs.jsonl      # append the result to a log
//	bash bench/run.sh -compare before.jsonl after.jsonl
//
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after a result with correct=false was printed.
var errIncorrect = errors.New("outputs did not match their references")

// options are the settings of one run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// short shrinks every size (set-up repeats, passes, ladder repetitions,
	// corpora) so the harness itself can be tested in seconds.
	short bool
	// out is the directory the traced run writes its span files to.
	out string
}

// setUps is how many times set-up runs; setup_s is their median.
func (o options) setUps() int {
	if o.short {
		return 1
	}
	return 5
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Float64("seconds", 10, "length of the measured phase in seconds")
		traceN  = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		short   = fs.Bool("short", false, "smoke-test shape: tiny corpora and repetition counts")
		out     = fs.String("out", ".bench_build/spans", "directory for the traced run's span files")
		record  = fs.String("record", "", "append {workload, seed, trace, result} to this JSON-lines file")
		compare = fs.Bool("compare", false, "compare two -record logs: bench -compare BEFORE AFTER")
		spec    = fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two record files")
		}
		return compareLogs(stdout, *spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloadsByName[*name]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *traceN < 0 || *traceN > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceN == 1,
		short:   *short,
		out:     *out,
	}
	hostRef := float64(hostReference()) / float64(time.Millisecond)
	fmt.Fprintf(stdout, "host reference: %.3f ms\n", hostRef)
	res, err := runWorkload(*name, o, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if *record != "" {
		if err := appendRecord(*record, runRecord{Workload: *name, Seed: *seed, Trace: *traceN, HostRefMS: hostRef, Result: *res}); err != nil {
			return err
		}
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric declares one reported number. The lists in this package must
// match BENCHMARK.json; bench_test.go checks that they do.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; an "op" is the workload's unit of work (one suite
// pass, one job, one trace upload).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"heap_p90_mb", "MB", "lower"},
}

// workload is one seeded traffic mix against one deployment of the system.
type workload interface {
	// setUp generates the inputs from the seed, builds the system and runs
	// one warm-up operation. It may be called again after tearDown.
	setUp(o options) error
	// tearDown stops everything setUp started and waits for it to end.
	tearDown()
	// measure runs operations until deadline, recording each in m. When tr
	// is non-nil it also records the spans of a sample of operations.
	measure(deadline time.Time, m *meter, tr *tracer)
	// verify checks the outputs recorded since the previous call against
	// their references and returns how many did not match.
	verify() int
	// corpus is the set of simulator runs the layer ladder times.
	corpus() []ladderCase
	// counts adds the workload's own per-layer counts and ratios.
	counts(put func(name string, v float64))
}

var workloadsByName = map[string]func() workload{
	"paper-suite":  func() workload { return &suiteWorkload{} },
	"node-jobs":    func() workload { return &jobsWorkload{fleet: false} },
	"fleet-jobs":   func() workload { return &jobsWorkload{fleet: true} },
	"trace-ingest": func() workload { return &ingestWorkload{} },
}

func workloadNames() []string {
	var names []string
	for n := range workloadsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload sets the workload up setUps() times (set-up time is their
// median), measures it, verifies it, and assembles the result.
func runWorkload(name string, o options, stdout io.Writer) (*result, error) {
	w := workloadsByName[name]()
	var setups []float64
	for i := 0; i < o.setUps(); i++ {
		if i > 0 {
			w.tearDown()
		}
		start := time.Now()
		err := w.setUp(o)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
	}
	defer w.tearDown()

	plain := measurePhase(w, o.seconds, nil)
	mismatched := w.verify()
	if late := percentile(millis(plain.m.late), 0.99); late > 5 {
		fmt.Fprintf(os.Stderr, "bench: %s: measurement void: the generator's p99 lateness was %.1f ms (limit 5 ms)\n", name, late)
	}
	phases := []phase{plain}
	specs, values, title := endToEnd, plain.endToEnd(), "end-to-end"
	values["setup_s"] = median(setups)
	var lm *layerReport
	if o.trace {
		// The traced phase starts from a fresh set-up, so it sends the
		// same inputs to a system in the same state as the plain phase.
		w.tearDown()
		if err := w.setUp(o); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		tr := newTracer()
		traced := measurePhase(w, o.seconds, tr)
		mismatched += w.verify()
		phases = append(phases, traced)
		var err error
		if lm, err = layerMetrics(w, plain, traced, tr, o); err != nil {
			return nil, err
		}
		mismatched += lm.mismatched
		specs, values, title = perLayer, lm.values, "per-layer"
	}
	res := &result{Metrics: map[string]value{}}
	for _, m := range specs {
		res.Metrics[m.name] = value{Value: values[m.name], Unit: m.unit}
	}
	printTable(stdout, fmt.Sprintf("%s: %s (seed %d, %d set-ups)", name, title, o.seed, len(setups)), res.Metrics, specs)
	if lm != nil {
		lm.printLedgers(stdout, name)
		path, err := lm.tr.write(o.out, name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	for _, p := range phases {
		res.Attempted += p.m.attempted
		res.Failed += p.m.failed
		for _, e := range p.m.errs {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, e)
		}
	}
	res.Failed += mismatched
	if mismatched > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d outputs differ from their references\n", name, mismatched)
	}
	res.Correct = res.Failed == 0
	for n, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", name, n, v.Value)
		}
	}
	return res, nil
}

// printTable writes the metrics of specs in declaration order.
func printTable(w io.Writer, title string, ms map[string]value, specs []metric) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, s := range specs {
		v := ms[s.name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", s.name, v.Value, v.Unit)
	}
}

// runRecord is one line of a -record log.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	// HostRefMS is the run's hostReference, in milliseconds.
	HostRefMS float64 `json:"host_ref_ms"`
	Result    result  `json:"result"`
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
