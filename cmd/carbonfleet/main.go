// Command carbonfleet fronts a fleet of carbond workers: it shards
// POST /v1/jobs across them with a pluggable routing policy, admits
// tenants through per-tenant token buckets, health-checks the fleet,
// and re-homes a dead worker's unfinished jobs onto survivors from
// their last mirrored checkpoints — zero job loss, results bit-identical
// to an undisturbed run.
//
// Usage:
//
//	carbonfleet -workers http://h1:8321,http://h2:8321 [-addr :8322]
//	            [-policy round-robin|least-loaded|weighted] [-weights 1,2]
//	            [-spool fleet-spool] [-probe-every 2s] [-probe-timeout 1s]
//	            [-dead-after 3] [-rate 0] [-burst 0] [-quota tenant=rps,...]
//	            [-spans=true]
//
// Clients speak the same job API as a single carbond — submit, status,
// result, delete — addressed by fleet IDs ("f000001"); which worker
// hosts a job is the router's business and survives failover without
// the client noticing. X-Carbon-Tenant names the admission tenant
// (default "default"); an over-quota submission gets a 429 with a
// Retry-After hint. GET /v1/workers and GET /v1/healthz expose the
// fleet as the router sees it.
//
// The router proxies live job event streams on GET
// /v1/jobs/{id}/events (SSE, resumable via Last-Event-ID, stitched
// across failover) and serves its own metrics (failovers, event-stream
// drops and reconnects, span write drops) on GET /metrics/prometheus;
// each worker serves its own on its own /metrics endpoints.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"carbon/internal/cluster"
)

func main() {
	var (
		addr     = flag.String("addr", ":8322", "HTTP listen address for the fleet API")
		workers  = flag.String("workers", "", "comma-separated carbond base URLs (required)")
		weights  = flag.String("weights", "", "comma-separated capacity weights aligned with -workers (weighted policy)")
		policy   = flag.String("policy", "round-robin", "routing policy: round-robin, least-loaded or weighted")
		spool    = flag.String("spool", "fleet-spool", "route spool directory (crash-safe job→worker map)")
		probeE   = flag.Duration("probe-every", 2*time.Second, "worker health-check cadence")
		probeT   = flag.Duration("probe-timeout", time.Second, "per-probe (and mirror request) timeout")
		deadN    = flag.Int("dead-after", 3, "consecutive missed probes before a worker is declared dead")
		rate     = flag.Float64("rate", 0, "default admission rate per tenant, submissions/sec (0 = unlimited)")
		burst    = flag.Int("burst", 0, "admission bucket size (default max(1, rate))")
		quotaS   = flag.String("quota", "", "per-tenant rate overrides, e.g. \"teamA=2,teamB=0.5\"")
		spans    = flag.Bool("spans", true, "write router spans to <spool>/fleet.spans.jsonl")
		drainFor = flag.Duration("drain-timeout", 10*time.Second, "max time to finish in-flight proxying on shutdown")
	)
	flag.Parse()

	if *workers == "" {
		fmt.Fprintln(os.Stderr, "carbonfleet: -workers is required")
		os.Exit(1)
	}
	var ws []float64
	if *weights != "" {
		for _, f := range strings.Split(*weights, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "carbonfleet: -weights:", err)
				os.Exit(1)
			}
			ws = append(ws, v)
		}
	}
	quota := map[string]float64{}
	if *quotaS != "" {
		for _, kv := range strings.Split(*quotaS, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "carbonfleet: -quota entry %q is not tenant=rate\n", kv)
				os.Exit(1)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "carbonfleet: -quota:", err)
				os.Exit(1)
			}
			quota[name] = v
		}
	}

	r, err := cluster.NewRouter(cluster.Options{
		Workers:      strings.Split(*workers, ","),
		Weights:      ws,
		Policy:       *policy,
		SpoolDir:     *spool,
		ProbeEvery:   *probeE,
		ProbeTimeout: *probeT,
		DeadAfter:    *deadN,
		Rate:         *rate,
		Burst:        *burst,
		Quota:        quota,
		Spans:        *spans,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbonfleet:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbonfleet:", err)
		os.Exit(1)
	}
	// Stdout banner mirrors carbond's so wrappers discover the port.
	fmt.Printf("carbonfleet: serving on %s (spool %s, %d workers, policy %s)\n",
		ln.Addr(), *spool, len(strings.Split(*workers, ",")), *policy)

	srv := &http.Server{Handler: r.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "carbonfleet:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stopSignals()

	// The spool holds every route; workers keep running their jobs. A
	// restarted router reattaches through the spool, so shutdown is just
	// an orderly stop.
	fmt.Fprintln(os.Stderr, "carbonfleet: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	if err := r.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "carbonfleet:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "carbonfleet: stopped")
}
