package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"
)

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "experiments version ") {
		t.Errorf("-version output = %q", buf.String())
	}
}

func TestSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig2"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig.2") || !strings.Contains(out, "swaptions") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCSVMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-csv"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(first, ",") || strings.Contains(first, "==") {
		t.Errorf("not CSV: %q", first)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig99"}, &buf, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestThreadsAndScaleFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-threads", "2", "-scale", "1"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
}

// TestWorkersByteIdentical is the CLI-level determinism check: the tables a
// parallel run renders must match the serial run byte for byte.
func TestWorkersByteIdentical(t *testing.T) {
	var serial, wide bytes.Buffer
	if err := run([]string{"-exp", "fig4", "-workers", "1"}, &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig4", "-workers", "8"}, &wide, io.Discard); err != nil {
		t.Fatal(err)
	}
	if serial.String() != wide.String() {
		t.Errorf("-workers 8 output differs from -workers 1:\n--- serial ---\n%s\n--- workers=8 ---\n%s",
			serial.String(), wide.String())
	}
}

// TestQuickSmokeMode runs the full -quick suite: every experiment's code
// path in a few seconds.
func TestQuickSmokeMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Scorecard", "Tab.1", "Fig.1", "Fig.4", "Tab.3", "Fig.7", "Tab.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("quick output missing %s", want)
		}
	}
}

// TestQuickSuiteMatchesStoredHash pins the -quick suite's stdout to the
// hash the benchmark harness verifies every pass against, so a change
// that moves any table fails here before it reaches the benchmark. The
// full suite's hash is checked the same way by the CI determinism job.
func TestQuickSuiteMatchesStoredHash(t *testing.T) {
	sums, err := os.ReadFile("../../bench/testdata/suite.sha256")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, line := range strings.Split(string(sums), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == "quick" {
			want = f[0]
		}
	}
	if want == "" {
		t.Fatal("suite.sha256 has no quick hash")
	}
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-workers", "1"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("-quick -workers 1 stdout hashes to %s, want %s", got, want)
	}
}

// TestTimingGoesToDiag checks the timing summary lands on the diagnostic
// stream, never the comparable table stream.
func TestTimingGoesToDiag(t *testing.T) {
	var out, diag bytes.Buffer
	if err := run([]string{"-exp", "fig2"}, &out, &diag); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "Harness timing") {
		t.Error("timing summary leaked into table stream")
	}
	d := diag.String()
	if !strings.Contains(d, "Harness timing") || !strings.Contains(d, "TOTAL") {
		t.Errorf("diag stream missing timing summary:\n%s", d)
	}
	var silent bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-timing=false"}, io.Discard, &silent); err != nil {
		t.Fatal(err)
	}
	if silent.Len() != 0 {
		t.Errorf("-timing=false still wrote diagnostics:\n%s", silent.String())
	}
}

// TestMetricsGoesToDiag checks -metrics renders the engine counters as a
// Prometheus exposition on the diagnostic stream only.
func TestMetricsGoesToDiag(t *testing.T) {
	var out, diag bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-metrics"}, &out, &diag); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "ddrace_parallel_") {
		t.Error("engine counters leaked into table stream")
	}
	d := diag.String()
	for _, want := range []string{
		"ddrace_parallel_fig2_jobs_total",
		"ddrace_parallel_suite_jobs_total",
		"# TYPE ddrace_parallel_fig2_wall_ns_total counter",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("diag exposition missing %q:\n%s", want, d)
		}
	}
}

// TestLogLevelErrorSilencesDiagnostics is the stderr-routing contract: at
// -log-level=error the timing summary is suppressed entirely.
func TestLogLevelErrorSilencesDiagnostics(t *testing.T) {
	var diag bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-log-level", "error"}, io.Discard, &diag); err != nil {
		t.Fatal(err)
	}
	if diag.Len() != 0 {
		t.Errorf("-log-level=error still wrote %d diagnostic bytes:\n%s", diag.Len(), diag.String())
	}
}
