package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"demandrace/internal/trace"
)

// perLayer are the metrics of the traced run, named <module>.<metric>.
// Every workload reports every one: a stage share is 0 on a workload whose
// operations do not pass through that stage, and a count is 0 where the
// workload has nothing to count.
var perLayer = []metric{
	// The simulator's layers: shares of runner.Run's host time on the
	// workload's corpus, from the layer ladder, and the corpus's size.
	{"runner.setup_share", "ratio", "lower"},
	{"sched.share", "ratio", "lower"},
	{"cache.share", "ratio", "lower"},
	{"perf.share", "ratio", "lower"},
	{"demand.share", "ratio", "lower"},
	{"detector.share", "ratio", "lower"},
	{"cost.share", "ratio", "lower"},
	{"runner.overhead_share", "ratio", "lower"},
	{"runner.ns_per_op", "ns", "lower"},
	{"workloads.build_share", "ratio", "lower"},
	{"workloads.build_ns_per_op", "ns", "lower"},
	// Exact counts from the corpus's reports.
	{"cache.accesses", "count", "lower"},
	{"cache.hitm_ratio", "ratio", "lower"},
	{"perf.samples", "count", "lower"},
	{"demand.analyzed_fraction", "ratio", "lower"},
	{"detector.events", "count", "lower"},
	{"detector.fast_path_ratio", "ratio", "higher"},
	// The trace codec, timed on the corpus's recorded runs.
	{"trace.decode_mb_s", "MB/s", "higher"},
	{"trace.stream_decode_mb_s", "MB/s", "higher"},
	{"trace.replay_ns_per_event", "ns", "lower"},
	{"trace.live_ns_per_event", "ns", "lower"},
	{"trace.livereplay_rebuilds", "count", "lower"},
	// Stages of the workload's operations: shares of traced operation time.
	{"experiments.scorecard_share", "ratio", "lower"},
	{"experiments.tab1_share", "ratio", "lower"},
	{"experiments.fig1_share", "ratio", "lower"},
	{"experiments.fig2_share", "ratio", "lower"},
	{"experiments.fig3_share", "ratio", "lower"},
	{"experiments.fig4_share", "ratio", "lower"},
	{"experiments.tab3_share", "ratio", "lower"},
	{"experiments.fig5_share", "ratio", "lower"},
	{"experiments.fig6_share", "ratio", "lower"},
	{"experiments.fig7_share", "ratio", "lower"},
	{"experiments.tab4_share", "ratio", "lower"},
	{"experiments.tab5_share", "ratio", "lower"},
	{"experiments.tab6_share", "ratio", "lower"},
	{"service.submit_share", "ratio", "lower"},
	{"service.trace_decode_share", "ratio", "lower"},
	{"service.queue_wait_share", "ratio", "lower"},
	{"service.analysis_share", "ratio", "lower"},
	{"service.render_share", "ratio", "lower"},
	{"service.notify_share", "ratio", "lower"},
	{"service.fetch_share", "ratio", "lower"},
	{"cluster.submit_overhead_share", "ratio", "lower"},
	{"ingest.chunk_put_share", "ratio", "lower"},
	{"ingest.session_share", "ratio", "lower"},
	// Counts and rates of the serving layers.
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.rejects", "count", "lower"},
	{"cluster.ring_imbalance", "ratio", "lower"},
	{"replica.copies", "count", "lower"},
	{"replica.pending_at_end", "count", "lower"},
	{"ingest.batch_mb_s", "MB/s", "higher"},
	{"ingest.stream_mb_s", "MB/s", "higher"},
	{"ingest.late_stream_mb_s", "MB/s", "higher"},
	// The harness itself.
	{"bench.gen_late_p99_ms", "ms", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
}

// rungMetric names each ladder rung's self-time share.
var rungMetric = [numRungs]string{
	"runner.setup_share", "sched.share", "cache.share", "perf.share",
	"demand.share", "detector.share", "cost.share",
}

// layerReport is what the traced run measured.
type layerReport struct {
	values     map[string]float64
	mismatched int
	ladder     *ladderResult
	tr         *tracer
}

// layerMetrics runs the ladder and the trace-codec timings on the
// workload's corpus and combines them with the traced phase's ledger.
func layerMetrics(w workload, plain, traced phase, tr *tracer, o options) (*layerReport, error) {
	reps, codecReps := 21, 5
	if o.short {
		reps, codecReps = 3, 1
	}
	lr, err := runLadder(w.corpus(), reps)
	if err != nil {
		return nil, err
	}
	codec, err := timeCodec(lr.traces, codecReps)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{}
	ref := float64(lr.ref)
	for r := 0; r < numRungs; r++ {
		v[rungMetric[r]] = float64(lr.selfTime(r)) / ref
	}
	v["runner.overhead_share"] = 1 - float64(lr.rung[rungCost])/ref
	if math.Abs(v["runner.overhead_share"]) > 0.1 {
		fmt.Fprintf(os.Stderr, "bench: the ladder does not close: its top rung is %.0f%% of runner.Run\n", 100*(1-v["runner.overhead_share"]))
	}
	v["runner.ns_per_op"] = ref / float64(lr.steps)
	v["workloads.build_share"] = float64(lr.build) / float64(lr.build+lr.ref)
	v["workloads.build_ns_per_op"] = float64(lr.build) / float64(lr.steps)

	var accesses, hitm, samples, analyzed, memOps, events, fast, rw float64
	for _, r := range lr.reports {
		accesses += float64(r.Cache.Accesses)
		hitm += float64(r.Cache.HITM)
		samples += float64(r.PMU.Delivered)
		analyzed += float64(r.Demand.MemAnalyzed)
		memOps += float64(r.Demand.MemAnalyzed + r.Demand.MemSkipped)
		d := r.Detector
		events += float64(d.Reads + d.Writes + d.SyncOps)
		fast += float64(d.SameEpochHits + d.OwnedHits)
		rw += float64(d.Reads + d.Writes)
	}
	v["cache.accesses"] = accesses
	v["cache.hitm_ratio"] = ratio(hitm, accesses)
	v["perf.samples"] = samples
	v["demand.analyzed_fraction"] = ratio(analyzed, memOps)
	v["detector.events"] = events
	v["detector.fast_path_ratio"] = ratio(fast, rw)

	v["trace.decode_mb_s"] = codec.decodeMBs
	v["trace.stream_decode_mb_s"] = codec.streamMBs
	v["trace.replay_ns_per_event"] = codec.replayNs
	v["trace.live_ns_per_event"] = codec.liveNs
	v["trace.livereplay_rebuilds"] = float64(codec.rebuilds)

	// Every other share is a stage of the traced operations: the stage
	// "service.queue_wait" reports as service.queue_wait_share.
	for _, m := range perLayer {
		if stage, ok := strings.CutSuffix(m.name, "_share"); ok {
			if _, set := v[m.name]; !set {
				v[m.name] = tr.share(stage)
			}
		}
	}
	w.counts(func(n string, x float64) { v[n] = x })
	v["bench.gen_late_p99_ms"] = percentile(millis(traced.m.late), 0.99)
	v["bench.trace_overhead"] = ratio(percentile(millis(traced.m.lat), 0.5), percentile(millis(plain.m.lat), 0.5)) - 1
	return &layerReport{values: v, mismatched: lr.mismatched, ladder: lr, tr: tr}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// codecResult is the trace codec's speed on a corpus.
type codecResult struct {
	decodeMBs, streamMBs float64
	replayNs, liveNs     float64
	rebuilds             int
}

// timeCodec times, on every trace, one-shot decoding, chunked stream
// decoding, batch replay and live replay, taking each step's median total
// over reps repetitions. Traces are handled one at a time so the corpus
// is never held decoded.
func timeCodec(raws [][]byte, reps int) (codecResult, error) {
	lim := trace.DecodeLimits{MaxEvents: 1 << 22, MaxBytes: 64 << 20}
	var dec, str, rep, live []float64
	var res codecResult
	size, events := 0, 0
	for r := 0; r < reps; r++ {
		var tDec, tStr, tRep, tLive time.Duration
		for _, raw := range raws {
			start := time.Now()
			tr, err := trace.DecodeBinaryLimited(bytes.NewReader(raw), lim)
			tDec += time.Since(start)
			if err != nil {
				return res, err
			}

			start = time.Now()
			sd := trace.NewStreamDecoder(lim)
			for off := 0; off < len(raw); off += chunkBytes {
				if _, err := sd.Feed(raw[off:min(off+chunkBytes, len(raw))]); err != nil {
					return res, err
				}
			}
			if err := sd.Finish(); err != nil {
				return res, err
			}
			tStr += time.Since(start)

			start = time.Now()
			trace.Replay(tr, replayOptions)
			tRep += time.Since(start)

			start = time.Now()
			l := trace.NewLiveReplay(replayOptions)
			for _, e := range tr.Events {
				l.Apply(e)
			}
			tLive += time.Since(start)
			if r == 0 {
				size += len(raw)
				events += len(tr.Events)
				res.rebuilds += l.Rebuilds()
			}
		}
		dec, str = append(dec, float64(tDec)), append(str, float64(tStr))
		rep, live = append(rep, float64(tRep)), append(live, float64(tLive))
	}
	mb := float64(size) / (1 << 20)
	res.decodeMBs = mb / (median(dec) / 1e9)
	res.streamMBs = mb / (median(str) / 1e9)
	res.replayNs = median(rep) / float64(events)
	res.liveNs = median(live) / float64(events)
	return res, nil
}

// printLedgers prints the "where the time goes" tables: the ladder's
// split of runner.Run, and the traced operations' split by stage.
func (lr *layerReport) printLedgers(w io.Writer, workload string) {
	l := lr.ladder
	fmt.Fprintf(w, "== %s: where runner.Run's time goes (corpus of %d runs, %.1f ms per pass) ==\n",
		workload, len(l.reports), float64(l.ref)/1e6)
	for r := 0; r < numRungs; r++ {
		fmt.Fprintf(w, "  %-24s %9.2f ms %6.1f%%\n", rungLayer[r], float64(l.selfTime(r))/1e6, 100*float64(l.selfTime(r))/float64(l.ref))
	}
	rest := l.ref - l.rung[rungCost]
	fmt.Fprintf(w, "  %-24s %9.2f ms %6.1f%%\n", "runner (rest)", float64(rest)/1e6, 100*float64(rest)/float64(l.ref))

	t := lr.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(w, "== %s: where an operation's time goes (%.1f ms traced) ==\n", workload, float64(t.total)/1e6)
	keys := make([]string, 0, len(t.stages))
	for k := range t.stages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return t.stages[keys[i]] > t.stages[keys[j]] })
	var covered time.Duration
	for _, k := range keys {
		covered += t.stages[k]
		fmt.Fprintf(w, "  %-30s %6.1f%%\n", k, 100*ratio(float64(t.stages[k]), float64(t.total)))
	}
	fmt.Fprintf(w, "  %-30s %6.1f%%\n", "(unattributed)", 100*ratio(float64(t.total-covered), float64(t.total)))
}
