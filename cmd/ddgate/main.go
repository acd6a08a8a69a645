// Command ddgate fronts a fleet of ddserved backends as one service: a
// sharded analysis cluster with consistent-hash routing, health-checked
// failover, and optional hedged requests. It exposes the exact ddserved
// API surface, so clients (service.Client, `ddrace -submit`, plain curl)
// point at the gateway instead of a node and nothing else changes.
//
// Jobs route by content hash — the same SHA-256 the service layer uses
// for result caching — so each backend's cache and on-disk store converge
// on its own shard of the keyspace. Backends that fail consecutive health
// probes are evicted from the ring and readmitted when they recover.
//
// Endpoints:
//
//	POST /v1/jobs               submit; routed by content hash with failover
//	GET  /v1/jobs/{id}          poll status (id is "<backend>:<remote id>")
//	GET  /v1/jobs/{id}/trace    merged gateway+backend waterfall for one job
//	GET  /v1/results/{id}       fetch a report, byte-identical to the backend's
//	GET  /v1/timeseries         fleet-wide metric history (gateway + backends)
//	GET  /v1/events             live SSE stream, tailed from every backend
//	                            (resumable: send Last-Event-ID to replay)
//	GET  /v1/alerts             fleet alerts: ring-level rules + every backend's
//	GET  /v1/dashboard          self-contained HTML ops console
//	GET  /v1/stats              gateway counters + per-backend aggregation
//	GET  /healthz               ring capacity (503 only when no backend is routable)
//	GET  /metrics               Prometheus text exposition
//
// Usage:
//
//	ddserved -addr 127.0.0.1:8318 &
//	ddserved -addr 127.0.0.1:8319 &
//	ddgate -addr 127.0.0.1:8418 -backends http://127.0.0.1:8318,http://127.0.0.1:8319
//	ddrace -kernel histogram -submit http://127.0.0.1:8418
//	ddgate -backends a=http://...,b=http://... -hedge-after 500ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"demandrace/internal/cluster"
	"demandrace/internal/obs"
	"demandrace/internal/obs/alert"
	olog "demandrace/internal/obs/log"
	"demandrace/internal/service"
	"demandrace/internal/tenant"
	"demandrace/internal/version"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8418", "listen address (port 0 picks a free port; see -addr-file)")
		addrFile      = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		backendsSpec  = flag.String("backends", "", "comma-separated backend list: url or name=url (required)")
		vnodes        = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
		replicas      = flag.Int("replicas", 1, "copies of each sealed result kept on the ring (1 = replication off)")
		tenantsFile   = flag.String("tenants", "", "JSON file of tenant configs; enables API-key admission control at the edge")
		retries       = flag.Int("retries", 2, "extra replicas a failed submission tries")
		retryBackoff  = flag.Duration("retry-backoff", 100*time.Millisecond, "base failover backoff (exponential with jitter)")
		attemptTO     = flag.Duration("attempt-timeout", 2*time.Minute, "per-backend attempt timeout")
		hedgeAfter    = flag.Duration("hedge-after", 0, "duplicate a slow submission to the next replica after this long (0 = off)")
		probeInterval = flag.Duration("probe-interval", time.Second, "backend health-probe period")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		failAfter     = flag.Int("fail-after", 2, "consecutive probe failures before ring eviction")
		maxBody       = flag.Int64("max-body", 64<<20, "max request body buffered for replay, in bytes")
		node          = flag.String("node", "ddgate", "node name reported in /v1/stats")
		statsTimeout  = flag.Duration("stats-timeout", 0, "per-backend /v1/stats, /v1/alerts and /v1/timeseries fetch timeout (0 = 2s default)")
		tsInterval    = flag.Duration("ts-interval", 0, "time-series sampling period for /v1/timeseries (0 = 5s default)")
		tsRetention   = flag.Duration("ts-retention", 0, "time-series history kept per metric (0 = 1h default)")
		alertRules    = flag.String("alert-rules", "", "JSON file of alert rules evaluated each ts-interval tick (empty = compiled-in ring rules)")
		versionFlag   = flag.Bool("version", false, "print the version and exit")
	)
	logFlags := olog.Register(flag.CommandLine, olog.FormatJSON)
	flag.Parse()
	if *versionFlag {
		fmt.Println(version.String("ddgate"))
		return
	}
	lg, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddgate:", err)
		os.Exit(2)
	}
	backends, err := cluster.ParseBackends(*backendsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddgate: -backends:", err)
		os.Exit(2)
	}
	var rules []alert.Rule
	if *alertRules != "" {
		rules, err = alert.LoadRulesFile(*alertRules)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddgate:", err)
			os.Exit(2)
		}
	}
	var tenants []tenant.Config
	if *tenantsFile != "" {
		tenants, err = tenant.LoadFile(*tenantsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddgate: -tenants:", err)
			os.Exit(2)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, options{
		addr:     *addr,
		addrFile: *addrFile,
		cfg: cluster.Config{
			Backends:      backends,
			VNodes:        *vnodes,
			Replicas:      *replicas,
			Tenants:       tenants,
			Retry:         service.Options{Timeout: *attemptTO, Retries: *retries, Backoff: *retryBackoff},
			HedgeAfter:    *hedgeAfter,
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			FailAfter:     *failAfter,
			MaxBodyBytes:  *maxBody,
			Node:          *node,
			StatsTimeout:  *statsTimeout,
			TSInterval:    *tsInterval,
			TSRetention:   *tsRetention,
			AlertRules:    rules,
			Registry:      obs.NewRegistry(),
			Log:           lg,
		},
	}); err != nil {
		lg.Error("ddgate exiting", "error", err.Error())
		os.Exit(1)
	}
}

type options struct {
	addr     string
	addrFile string
	cfg      cluster.Config
}

// run serves until ctx is canceled (main wires ctx to SIGINT/SIGTERM).
func run(ctx context.Context, opts options) error {
	if opts.cfg.Log == nil {
		opts.cfg.Log = olog.Discard()
	}
	lg := opts.cfg.Log

	g, err := cluster.NewGateway(opts.cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if opts.addrFile != "" {
		if err := os.WriteFile(opts.addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	// Probe once before serving so a backend that is already down is out
	// of the ring for the very first request, then keep probing.
	g.ProbeNow(ctx)
	g.Start()
	defer g.Stop()

	httpSrv := &http.Server{Handler: g.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	n := g.Config()
	lg.Info("ddgate listening",
		"version", version.Version,
		"addr", bound,
		"backends", len(n.Backends),
		"active", g.Ring().Size(),
		"vnodes", n.VNodes,
		"retries", n.Retry.Retries,
		"hedge_after_ms", n.HedgeAfter.Milliseconds(),
	)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	lg.Info("ddgate stopped")
	return nil
}
