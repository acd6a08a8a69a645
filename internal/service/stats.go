package service

import (
	"time"

	"demandrace/internal/obs"
	"demandrace/internal/tenant"
)

// LatencySummary condenses one wall-clock histogram into the percentiles an
// operator actually reads. Percentiles are bucket-interpolated estimates
// (the same estimator as Prometheus's histogram_quantile).
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"` // estimate: p100 clamps to the top finite bucket bound
}

// EndpointStats is one row of the per-route latency table.
type EndpointStats struct {
	Route string `json:"route"`
	LatencySummary
}

// QueueStats describes submission-queue pressure.
type QueueStats struct {
	Depth     int  `json:"depth"`
	Capacity  int  `json:"capacity"`
	HighWater int  `json:"high_water"`
	Degraded  bool `json:"degraded"`
}

// JobStats aggregates the job lifecycle counters.
type JobStats struct {
	Submitted      uint64 `json:"submitted"`
	Completed      uint64 `json:"completed"`
	Failed         uint64 `json:"failed"`
	Canceled       uint64 `json:"canceled"`
	Rejected       uint64 `json:"rejected"`
	Inflight       int64  `json:"inflight"`
	UtilizationPct int64  `json:"utilization_pct"`
}

// SLOStats is the request-latency error budget: of Requests measured,
// Breaches exceeded ThresholdMS; the budget is the (1-Target) share the
// service may burn while still Healthy.
type SLOStats struct {
	ThresholdMS float64 `json:"threshold_ms"`
	Target      float64 `json:"target"`
	Requests    uint64  `json:"requests"`
	Breaches    uint64  `json:"breaches"`
	Compliance  float64 `json:"compliance"`
	BudgetUsed  float64 `json:"budget_used"`
	Healthy     bool    `json:"healthy"`
}

// DetectorStats aggregates race-detector work across every job this process
// has run (simulation runs and trace replays alike), read back from the
// ddrace_detector_* counters the runner publishes. The four hit/fallback
// rows partition Reads+Writes in epoch mode: same-epoch and owned are the
// O(1) fast paths, epoch fallbacks ran the constant-time HB comparisons,
// and VC fallbacks walked a read vector clock.
type DetectorStats struct {
	Reads          uint64 `json:"reads"`
	Writes         uint64 `json:"writes"`
	SameEpochHits  uint64 `json:"same_epoch_hits"`
	OwnedHits      uint64 `json:"owned_hits"`
	EpochFallbacks uint64 `json:"epoch_fallbacks"`
	VCFallbacks    uint64 `json:"vc_fallbacks"`
	ReadInflations uint64 `json:"read_inflations"`
	ReadSpills     uint64 `json:"read_spills"`
	SyncOps        uint64 `json:"sync_ops"`
	Races          uint64 `json:"races"`
	Suppressed     uint64 `json:"suppressed"`
}

// StoreStats describes the optional on-disk result store.
type StoreStats struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// StatsSummary is the GET /v1/stats document: a self-contained operational
// snapshot assembled from the wall-clock side of the registry. It is a
// diagnostics surface — values here are intentionally non-deterministic,
// unlike the simulation exports.
//
// Node names the process that produced the document. Queue pressure and
// SLO numbers are inherently per-process, so when ddgate merges backend
// stats into its aggregated view, the node field is what keeps each row
// attributable to one backend rather than reading as cluster totals.
type StatsSummary struct {
	Node          string          `json:"node"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Workers       int             `json:"workers"`
	Health        string          `json:"health"`
	Queue         QueueStats      `json:"queue"`
	Jobs          JobStats        `json:"jobs"`
	Endpoints     []EndpointStats `json:"endpoints"`
	QueueWait     LatencySummary  `json:"queue_wait"`
	JobDuration   LatencySummary  `json:"job_duration"`
	SLO           SLOStats        `json:"slo"`
	Detector      DetectorStats   `json:"detector"`
	Store         *StoreStats     `json:"store,omitempty"`
	Tenants       []tenant.Stats  `json:"tenants,omitempty"`
}

// summarize reads one histogram into a LatencySummary.
func summarize(h *obs.Histogram) LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		P50MS: h.Quantile(0.50),
		P90MS: h.Quantile(0.90),
		P99MS: h.Quantile(0.99),
		MaxMS: h.Quantile(1.0),
	}
}

// Stats assembles the current operational snapshot served at GET /v1/stats.
func (s *Server) Stats() StatsSummary {
	health, queued, _ := s.Health()

	sum := StatsSummary{
		Node:          s.cfg.Node,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		Health:        health,
		Queue: QueueStats{
			Depth:     queued,
			Capacity:  s.cfg.QueueDepth,
			HighWater: s.cfg.QueueHighWater,
			Degraded:  health == HealthDegraded,
		},
		Jobs: JobStats{
			Submitted:      s.cSubmit.Value(),
			Completed:      s.cComplete.Value(),
			Failed:         s.cFail.Value(),
			Canceled:       s.cCancel.Value(),
			Rejected:       s.cReject.Value(),
			Inflight:       s.gInflight.Value(),
			UtilizationPct: s.gUtil.Value(),
		},
		QueueWait:   summarize(s.hWait),
		JobDuration: summarize(s.hJobDur),
	}

	// The route table reuses the handler registration order, so the JSON is
	// stable run to run even though the values are wall-clock.
	for _, rt := range routes {
		h := s.reg.Histogram(obs.SvcHTTPLatencyPrefix+rt.key, obs.LatencyBuckets)
		sum.Endpoints = append(sum.Endpoints, EndpointStats{
			Route:          rt.key,
			LatencySummary: summarize(h),
		})
	}

	slo := SLOStats{
		ThresholdMS: float64(s.cfg.SLOLatency) / float64(time.Millisecond),
		Target:      s.cfg.SLOTarget,
		Requests:    s.reg.CounterValue(obs.SvcSLORequests),
		Breaches:    s.reg.CounterValue(obs.SvcSLOBreaches),
		Compliance:  1,
		Healthy:     true,
	}
	if slo.Requests > 0 {
		slo.Compliance = 1 - float64(slo.Breaches)/float64(slo.Requests)
		if budget := 1 - slo.Target; budget > 0 {
			slo.BudgetUsed = (float64(slo.Breaches) / float64(slo.Requests)) / budget
		}
		slo.Healthy = slo.Compliance >= slo.Target
	}
	sum.SLO = slo
	sum.Detector = DetectorStats{
		Reads:          s.reg.CounterValue("ddrace_detector_reads_total"),
		Writes:         s.reg.CounterValue("ddrace_detector_writes_total"),
		SameEpochHits:  s.reg.CounterValue("ddrace_detector_same_epoch_hits_total"),
		OwnedHits:      s.reg.CounterValue("ddrace_detector_owned_hits_total"),
		EpochFallbacks: s.reg.CounterValue("ddrace_detector_epoch_fallbacks_total"),
		VCFallbacks:    s.reg.CounterValue("ddrace_detector_vc_fallbacks_total"),
		ReadInflations: s.reg.CounterValue("ddrace_detector_read_inflations_total"),
		ReadSpills:     s.reg.CounterValue("ddrace_detector_read_spills_total"),
		SyncOps:        s.reg.CounterValue("ddrace_detector_sync_ops_total"),
		Races:          s.reg.CounterValue("ddrace_detector_races_total"),
		Suppressed:     s.reg.CounterValue("ddrace_detector_suppressed_total"),
	}
	if s.cfg.Store != nil {
		sum.Store = &StoreStats{
			Dir:     s.cfg.Store.Dir(),
			Entries: s.cfg.Store.Len(),
			Bytes:   s.cfg.Store.Size(),
		}
	}
	sum.Tenants = s.tenants.StatsSnapshot()
	return sum
}
