// Command carbond serves CARBON optimizations as crash-safe jobs over
// HTTP. Jobs are spooled to disk, checkpointed periodically while they
// run, and resumed automatically after a crash or restart; a graceful
// shutdown (SIGTERM/SIGINT) checkpoints every running job before exit.
//
// Usage:
//
//	carbond [-addr :8321] [-spool spool] [-jobs 1] [-queue 16]
//	        [-checkpoint-every 25] [-metrics-addr :8080]
//	        [-max-attempts 3] [-retry-backoff 250ms] [-attempt-timeout 0]
//	        [-fault ""] [-fault-seed 1] [-spans=true]
//
// With -spans (the default) every job writes a <id>.spans.jsonl trace
// next to its spool entry — submit-to-solve latency attribution that
// survives crashes and stitches across restarts. A traceparent request
// header on POST /v1/jobs joins the job to the caller's trace; analyze
// the files with `carbonstat -spans`. Span durations also feed
// span_*_ms histograms on /metrics/prometheus.
//
// A job that fails retryably (an evaluation fault, a spool I/O error,
// an attempt timeout) is retried from its last clean checkpoint with
// exponential backoff, up to -max-attempts; an exhausted job is
// dead-lettered (state "dead", attempts preserved across restarts).
// -fault arms deterministic fault injection for chaos drills, e.g.
// "lp.solve:every=1,after=30,limit=8;spool.write:prob=0.1" — never set
// it in production.
//
// API (see README "Serving" for examples):
//
//	POST   /v1/jobs             submit a job spec
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status + live per-generation stats
//	GET    /v1/jobs/{id}/result final result (409 until finished)
//	DELETE /v1/jobs/{id}        cancel or delete
//	GET    /metrics             aggregated engine metrics (also /debug/*)
//	GET    /metrics/prometheus  the same, plus per-job series, in text exposition format
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"path/filepath"

	"carbon/internal/cluster/netmigrate"
	"carbon/internal/fault"
	"carbon/internal/serve"
	"carbon/internal/span"
	"carbon/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", ":8321", "HTTP listen address for the job API")
		spool    = flag.String("spool", "spool", "spool directory for specs, checkpoints and results")
		jobs     = flag.Int("jobs", 1, "jobs run concurrently (each job's eval parallelism is per-spec)")
		queue    = flag.Int("queue", 16, "queued jobs beyond which submissions are rejected (429)")
		ckEvery  = flag.Int("checkpoint-every", 25, "checkpoint running jobs every N generations")
		metricsA = flag.String("metrics-addr", "", "also serve the telemetry mux on this separate address")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max time to checkpoint running jobs on shutdown")
		attempts = flag.Int("max-attempts", 3, "executions per job before it is dead-lettered")
		backoff  = flag.Duration("retry-backoff", 250*time.Millisecond, "base delay between attempts (doubles per retry, jittered)")
		attemptT = flag.Duration("attempt-timeout", 0, "wall-clock bound per attempt (0 = none; retryable, unlike a spec timeout)")
		faultS   = flag.String("fault", "", "fault-injection spec for chaos drills, e.g. \"lp.solve:every=1,after=30,limit=8\"")
		faultSd  = flag.Uint64("fault-seed", 1, "seed for probabilistic fault decisions")
		spans    = flag.Bool("spans", true, "write per-job span traces (<id>.spans.jsonl) next to the spool")
		fleet    = flag.Bool("fleet", true, "serve the /v1/fleet/ peer endpoints (networked island model)")
	)
	flag.Parse()

	inj, err := fault.Parse(*faultS, *faultSd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbond:", err)
		os.Exit(1)
	}
	if inj != nil {
		fmt.Fprintf(os.Stderr, "carbond: FAULT INJECTION ARMED (seed %d): %s\n",
			*faultSd, strings.Join(inj.Names(), ", "))
	}

	reg := telemetry.NewRegistry()
	mgr, err := serve.NewManager(serve.Options{
		Workers:         *jobs,
		QueueDepth:      *queue,
		SpoolDir:        *spool,
		CheckpointEvery: *ckEvery,
		Metrics:         reg,
		MaxAttempts:     *attempts,
		RetryBackoff:    *backoff,
		AttemptTimeout:  *attemptT,
		RetrySeed:       *faultSd,
		Fault:           inj,
		Spans:           *spans,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbond:", err)
		os.Exit(1)
	}

	// One mux serves both the job API and the telemetry endpoints, so a
	// single port gives /v1/*, /metrics, /metrics/prometheus and
	// /debug/*. The Prometheus endpoint renders the aggregate engine
	// registry plus one job="<id>"-labeled series set per job, re-read on
	// every scrape so later submissions appear without restarts.
	// -metrics-addr additionally exposes the telemetry mux on its own
	// listener (for firewalling the API separately from introspection).
	reg.PublishExpvar("carbond")
	telemetryMux := telemetry.DynamicHandler(
		func() map[string]*telemetry.Registry { return map[string]*telemetry.Registry{"carbond": reg} },
		mgr.MetricsTargets,
	)
	mux := http.NewServeMux()
	// The fleet peer endpoints host shards of distributed island runs
	// (submitted through a carbonfleet router). Registered before the
	// /v1/ catch-all: more specific patterns win, so /v1/fleet/* routes
	// to the peer and everything else under /v1/ to the job API. With
	// -spans the peer's shard spans land in <spool>/fleet.spans.jsonl,
	// joining the run's cross-node trace.
	if *fleet {
		var tracer *span.Tracer
		if *spans {
			exp := span.NewFileExporter(filepath.Join(*spool, "fleet.spans.jsonl"))
			defer exp.Close()
			tracer = span.New(exp)
		}
		peer := netmigrate.NewPeer(netmigrate.PeerOptions{Tracer: tracer})
		mux.Handle("/v1/fleet/", peer.Handler())
	}
	mux.Handle("/v1/", serve.APIHandler(mgr))
	mux.Handle("/", telemetryMux)
	if *metricsA != "" {
		mln, err := net.Listen("tcp", *metricsA)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carbond:", err)
			os.Exit(1)
		}
		msrv := &http.Server{Handler: telemetryMux}
		go func() { _ = msrv.Serve(mln) }()
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "carbond: metrics on http://%s/metrics\n", mln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbond:", err)
		os.Exit(1)
	}
	// The bound address goes to stdout so wrappers (the smoke test
	// harness, scripts using -addr :0) can discover the port.
	fmt.Printf("carbond: serving on %s (spool %s)\n", ln.Addr(), *spool)

	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "carbond:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stopSignals()

	// Graceful drain: stop accepting HTTP, checkpoint and park every
	// running job, leave the spool ready for the next start.
	fmt.Fprintln(os.Stderr, "carbond: draining (checkpointing running jobs)")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	if err := mgr.Close(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "carbond:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "carbond: drained")
}
