package cluster

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"carbon/internal/slo"
	"carbon/internal/telemetry"
)

// federation is the router's observability state: the latest merged
// fleet-wide metric view, the SLO evaluator that watches it, and the
// search-dynamics detectors fed from the router's own status polls.
// Scrape/evaluate rounds run on the probe goroutine; the HTTP handlers
// read the cached result under mu, so a slow worker can delay the next
// refresh but never an operator's query.
type federation struct {
	eval *slo.Evaluator

	// dynMu guards dyn: Observe/Forget run from syncRoutes and Alerts
	// from federate — usually the same probe goroutine, but Probe() is
	// exported and may race the ticker.
	dynMu sync.Mutex
	dyn   *slo.Dynamics

	mu        sync.Mutex
	fams      []telemetry.Family
	alerts    []slo.Alert
	scrapedAt time.Time
	scraped   int               // workers that answered this round
	scrapeErr map[string]string // worker URL → last scrape failure
	mergeErr  string            // non-empty when the cached view is stale
}

func newFederation(rules []slo.Rule) *federation {
	return &federation{
		eval:      slo.NewEvaluator(rules),
		dyn:       slo.NewDynamics(0),
		scrapeErr: map[string]string{},
	}
}

// FleetMetricsSnapshot is the JSON rollup served on /v1/fleet/metrics:
// the merged families plus the metadata an operator needs to judge how
// fresh and complete the view is.
type FleetMetricsSnapshot struct {
	ScrapedAt    time.Time          `json:"scraped_at"`
	Scraped      int                `json:"workers_scraped"`
	ScrapeErrors map[string]string  `json:"scrape_errors,omitempty"`
	MergeError   string             `json:"merge_error,omitempty"`
	Alerts       []slo.Alert        `json:"alerts"`
	Families     []telemetry.Family `json:"families"`
}

// federate is one scrape round: pull every healthy worker's
// /metrics/prometheus, fold the samples into one fleet-wide view
// (counters and histograms summed, gauges kept per-worker under a
// `worker` label — telemetry.Merge's contract), run the SLO rules and
// dynamics detectors over it, and cache the result for the metrics and
// alerts endpoints. Dead workers are skipped, so fleet counter totals
// are exactly the sum of the survivors — the conservation property the
// observability smoke asserts after a kill.
func (r *Router) federate() {
	r.mu.Lock()
	var targets []string
	unfinished := 0
	for _, w := range r.workers {
		if w.healthy {
			targets = append(targets, w.url)
		}
	}
	for _, rt := range r.routes {
		if !rt.Done {
			unfinished++
		}
	}
	failovers := r.failovers
	r.mu.Unlock()

	// Self-view gauges refresh before the self-scrape below reads them.
	r.metrics.Gauge("cluster.workers_healthy").Set(float64(len(targets)))
	r.metrics.Gauge("cluster.routes_unfinished").Set(float64(unfinished))
	r.metrics.Gauge("cluster.failovers_total").Set(float64(failovers))

	type scrapeRes struct {
		url  string
		fams []telemetry.Family
		err  error
	}
	results := make([]scrapeRes, len(targets))
	var wg sync.WaitGroup
	for i, url := range targets {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			results[i] = scrapeRes{url: url}
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
			defer cancel()
			b, err := r.getBytes(ctx, url+"/metrics/prometheus")
			if err != nil {
				results[i].err = err
				return
			}
			results[i].fams, results[i].err = telemetry.ParseFamilies(bytes.NewReader(b))
		}(i, url)
	}
	wg.Wait()

	// The router contributes its own registry as one more scrape, under
	// worker="router" — fleet dashboards see routing health next to
	// worker health in one namespace.
	scrapes := []telemetry.Scrape{{
		Worker:   "router",
		Families: telemetry.Families(telemetry.PromTarget{Name: "carbonfleet", Registry: r.metrics}),
	}}
	errs := map[string]string{}
	scraped := 0
	for _, res := range results {
		if res.err != nil {
			errs[res.url] = res.err.Error()
			r.metScrapeErr.Inc()
			continue
		}
		scraped++
		scrapes = append(scrapes, telemetry.Scrape{Worker: workerLabel(res.url), Families: res.fams})
	}

	now := time.Now()
	merged, err := telemetry.Merge(scrapes...)
	var mergeErr string
	if err != nil {
		// A worker exporting incompatible histogram bounds (a version
		// skew, usually) must not blank the fleet view: keep the last
		// good merge and flag the staleness instead.
		mergeErr = err.Error()
		r.fed.mu.Lock()
		merged = r.fed.fams
		r.fed.mu.Unlock()
	}

	alerts := r.fed.eval.Evaluate(merged, now)
	r.fed.dynMu.Lock()
	alerts = append(alerts, r.fed.dyn.Alerts(now)...)
	r.fed.dynMu.Unlock()
	sort.Slice(alerts, func(a, b int) bool {
		if alerts[a].Rule != alerts[b].Rule {
			return alerts[a].Rule < alerts[b].Rule
		}
		return alerts[a].Metric < alerts[b].Metric
	})

	r.fed.mu.Lock()
	r.fed.fams = merged
	r.fed.alerts = alerts
	r.fed.scrapedAt = now
	r.fed.scraped = scraped
	r.fed.scrapeErr = errs
	r.fed.mergeErr = mergeErr
	r.fed.mu.Unlock()
}

// workerLabel shortens a worker base URL into its `worker` label value:
// the host:port, scheme stripped — stable across restarts and short
// enough for a terminal column.
func workerLabel(url string) string {
	url = strings.TrimPrefix(url, "http://")
	url = strings.TrimPrefix(url, "https://")
	return strings.TrimRight(url, "/")
}

// FleetMetrics returns the latest federated rollup (copies, safe to
// serialize while the next scrape round runs).
func (r *Router) FleetMetrics() FleetMetricsSnapshot {
	r.fed.mu.Lock()
	defer r.fed.mu.Unlock()
	snap := FleetMetricsSnapshot{
		ScrapedAt:  r.fed.scrapedAt,
		Scraped:    r.fed.scraped,
		MergeError: r.fed.mergeErr,
		Alerts:     append([]slo.Alert(nil), r.fed.alerts...),
		Families:   append([]telemetry.Family(nil), r.fed.fams...),
	}
	if len(r.fed.scrapeErr) > 0 {
		snap.ScrapeErrors = make(map[string]string, len(r.fed.scrapeErr))
		for k, v := range r.fed.scrapeErr {
			snap.ScrapeErrors[k] = v
		}
	}
	return snap
}

// Alerts returns the current SLO and dynamics alerts, sorted by rule
// then metric.
func (r *Router) Alerts() []slo.Alert {
	r.fed.mu.Lock()
	defer r.fed.mu.Unlock()
	return append([]slo.Alert(nil), r.fed.alerts...)
}

// ServeFleetProm renders the federated view — merged worker families
// plus the alert gauges — in Prometheus text exposition format, the
// single endpoint a fleet-level Prometheus scrapes instead of N worker
// endpoints.
func (r *Router) ServeFleetProm(w http.ResponseWriter) {
	r.fed.mu.Lock()
	fams := append([]telemetry.Family(nil), r.fed.fams...)
	alerts := append([]slo.Alert(nil), r.fed.alerts...)
	r.fed.mu.Unlock()
	fams = append(fams, slo.AlertFamilies(alerts)...)
	sort.Slice(fams, func(a, b int) bool { return fams[a].Name < fams[b].Name })
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WriteFamilies(w, fams)
}
