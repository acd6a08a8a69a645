package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"demandrace/internal/demand"
	"demandrace/internal/experiments"
	"demandrace/internal/program"
	"demandrace/internal/runner"
	"demandrace/internal/stats"
	"demandrace/internal/workloads"
)

// suiteSums holds the sha256 of `experiments -workers 1` standard output
// ("full") and of `experiments -quick -workers 1` ("quick").
//
//go:embed testdata/suite.sha256
var suiteSums string

// suiteOrder is the order cmd/experiments prints the tables in.
var suiteOrder = []string{"scorecard", "tab1", "fig1", "fig2", "fig3", "fig4", "tab3", "fig5", "fig6", "fig7", "tab4", "tab5", "tab6"}

type tabler interface{ Table() *stats.Table }

var suiteRunners = map[string]func(experiments.Options) (tabler, error){
	"scorecard": func(o experiments.Options) (tabler, error) { return experiments.Scorecard(o) },
	"tab1":      func(o experiments.Options) (tabler, error) { return experiments.Tab1(o) },
	"fig1":      func(o experiments.Options) (tabler, error) { return experiments.Fig1(o) },
	"fig2":      func(o experiments.Options) (tabler, error) { return experiments.Fig2(o) },
	"fig3":      func(o experiments.Options) (tabler, error) { return experiments.Fig3(o) },
	"fig4":      func(o experiments.Options) (tabler, error) { return experiments.Fig4(o) },
	"tab3":      func(o experiments.Options) (tabler, error) { return experiments.Tab3(o) },
	"fig5":      func(o experiments.Options) (tabler, error) { return experiments.Fig5(o) },
	"fig6":      func(o experiments.Options) (tabler, error) { return experiments.Fig6(o) },
	"fig7":      func(o experiments.Options) (tabler, error) { return experiments.Fig7(o) },
	"tab4":      func(o experiments.Options) (tabler, error) { return experiments.Tab4(o) },
	"tab5":      func(o experiments.Options) (tabler, error) { return experiments.Tab5(o) },
	"tab6":      func(o experiments.Options) (tabler, error) { return experiments.Tab6(o) },
}

// suiteWorkload is the researcher's job: every experiment of the paper,
// serially (Workers: 1), tables rendered. One operation is one pass. The
// seed permutes the order the experiments run in; the rendered output is
// assembled in the printed order, so it never changes.
type suiteWorkload struct {
	o     options
	order []string
	want  string
	sums  []string // hashes of the passes since the last verify
}

// suitePasses is the fewest passes a phase runs, so that its latency
// percentiles rest on enough samples even on a slow machine.
func (o options) suitePasses() int {
	if o.short {
		return 1
	}
	return 10
}

func (w *suiteWorkload) setUp(o options) error {
	w.o = o
	w.order = append([]string(nil), suiteOrder...)
	rand.New(rand.NewSource(o.seed)).Shuffle(len(w.order), func(i, j int) {
		w.order[i], w.order[j] = w.order[j], w.order[i]
	})
	want, err := expectedSum(o.short)
	if err != nil {
		return err
	}
	w.want, w.sums = want, nil
	sum, err := w.pass(nil, 0)
	if err != nil {
		return err
	}
	if sum != w.want {
		return fmt.Errorf("warm-up pass rendered tables hashing to %s, want %s", sum, w.want)
	}
	return nil
}

func (w *suiteWorkload) tearDown() {}

// expectedSum reads the stored hash of the full (or quick) suite output.
func expectedSum(quick bool) (string, error) {
	key := "full"
	if quick {
		key = "quick"
	}
	for _, line := range strings.Split(suiteSums, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == key {
			return f[0], nil
		}
	}
	return "", fmt.Errorf("testdata/suite.sha256 has no %q hash", key)
}

// pass runs every experiment once and returns the hash of the rendered
// tables.
func (w *suiteWorkload) pass(tr *tracer, req int) (string, error) {
	opts := experiments.Options{Workers: 1, Quick: w.o.short}
	tables := map[string]*stats.Table{}
	for _, name := range w.order {
		start := time.Now()
		res, err := suiteRunners[name](opts)
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		tables[name] = res.Table()
		if tr != nil {
			tr.stage(req, "experiments", name, start, time.Since(start))
		}
	}
	var out bytes.Buffer
	for _, name := range suiteOrder {
		fmt.Fprintln(&out, tables[name])
	}
	sum := sha256.Sum256(out.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func (w *suiteWorkload) measure(deadline time.Time, m *meter, tr *tracer) {
	ready := time.Now()
	for i := 0; i < w.o.suitePasses() || time.Now().Before(deadline); i++ {
		start := time.Now()
		sum, err := w.pass(tr, i)
		end := time.Now()
		if err == nil {
			w.sums = append(w.sums, sum)
		}
		if tr != nil {
			tr.op(i, start, end)
		}
		m.done(start.Sub(ready), end.Sub(start), err)
		ready = end
	}
}

func (w *suiteWorkload) verify() int {
	bad := 0
	for _, s := range w.sums {
		if s != w.want {
			bad++
		}
	}
	w.sums = nil
	return bad
}

// corpus is every evaluation kernel at the suite's default size under the
// three policies the experiments run most: off (fig2), continuous (fig1,
// fig4) and hitm-demand (fig4).
func (w *suiteWorkload) corpus() []ladderCase {
	kernels := suiteKernels()
	if w.o.short {
		kernels = kernels[:2]
	}
	var cases []ladderCase
	for _, k := range kernels {
		for _, pol := range []demand.PolicyKind{demand.Off, demand.Continuous, demand.HITMDemand} {
			cases = append(cases, ladderCase{
				build: func() *program.Program { return k.Build(workloads.DefaultConfig()) },
				cfg:   runner.DefaultConfig().WithPolicy(pol),
			})
		}
	}
	return cases
}

func (w *suiteWorkload) counts(func(string, float64)) {}
