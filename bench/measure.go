package main

import (
	"crypto/sha256"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// meter records the operations of one measured phase. It is safe for
// concurrent use: the open-loop workloads record from one goroutine per
// request.
type meter struct {
	mu        sync.Mutex
	lat, late []time.Duration
	attempted int
	failed    int
	// errs keeps the first few failures for the diagnostic output.
	errs []error
}

// done records one operation: late is how long after its intended start
// it was sent, lat how long it took from the intended start to the
// result in hand. A failed operation counts against the run and adds no
// latency sample.
func (m *meter) done(late, lat time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if err != nil {
		m.failed++
		if len(m.errs) < 5 {
			m.errs = append(m.errs, err)
		}
		return
	}
	m.lat = append(m.lat, lat)
	m.late = append(m.late, late)
}

// phase is what one measured phase produced.
type phase struct {
	m      *meter
	cpu    time.Duration
	heapMB float64
}

// measurePhase runs w's timed loop for d while sampling the heap and the
// process's CPU time.
func measurePhase(w workload, d time.Duration, tr *tracer) phase {
	stop := sampleHeap(10 * time.Millisecond)
	cpu0 := cpuTime()
	m := &meter{}
	w.measure(time.Now().Add(d), m, tr)
	return phase{m: m, cpu: cpuTime() - cpu0, heapMB: stop() / (1 << 20)}
}

// endToEnd returns the phase's end-to-end metrics, all but setup_s.
func (p phase) endToEnd() map[string]float64 {
	lat := millis(p.m.lat)
	return map[string]float64{
		"op_p50_ms":     percentile(lat, 0.50),
		"op_p90_ms":     percentile(lat, 0.90),
		"cpu_ms_per_op": float64(p.cpu) / float64(time.Millisecond) / float64(max(p.m.attempted, 1)),
		"heap_p90_mb":   p.heapMB,
	}
}

// hostReference times a fixed computation that uses no code of this
// repository: SHA-256 over 8 MiB, median of three. On a shared host the
// same code runs tens of percent slower or faster from one hour to the
// next; this number follows that drift and not the system under test, so
// a comparison of two sets of runs can tell the two apart.
func hostReference() time.Duration {
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	var ts []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		sha256.Sum256(buf)
		ts = append(ts, float64(time.Since(start)))
	}
	return time.Duration(median(ts))
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMetric is the heap the last garbage collection found live. Unlike
// the heap's total size it does not depend on how far the collector lags
// behind allocation, so runs doing the same work read the same.
const heapMetric = "/gc/heap/live:bytes"

// sampleHeap collects garbage, then samples the live heap every interval
// until the returned function is called; that function returns the
// samples' 90th percentile in bytes. The percentile, not the maximum: the
// maximum is one collection that happened to land mid-allocation, and
// varies from run to run far more than the work does.
func sampleHeap(every time.Duration) func() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	samples := []float64{read()}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				samples = append(samples, read())
			}
		}
	}()
	return func() float64 {
		close(stop)
		<-done
		return percentile(samples, 0.9)
	}
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// percentile is the p-quantile of xs with linear interpolation between
// closest ranks (0 for an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p * float64(len(s)-1)
	i := int(r)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (r-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads reported here match that definition.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
