# Developer entry points. Everything is stdlib Go; no tool dependencies.

GO ?= go

.PHONY: all build vet lint test race check cover bench bench-preflight bench-diff bench-smoke bench-module bench-all quick full taxonomy examples smoke serve-smoke stat-smoke chaos-smoke trace-smoke fleet-smoke obs-smoke clean

all: build vet test

# The full pre-commit gate: compile, static checks, lint, tests, race
# detector, a one-iteration pass over the hot-path benchmarks (so they
# cannot rot), the repo benchmark's own smoke test, the
# committed-capture regression diff, the five live-process smoke gates
# and the carbonstat analyzer self-check.
check: build vet lint test race bench-smoke bench-module bench-diff smoke stat-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./internal/smoketest/

# Static hygiene beyond vet: gofmt cleanliness everywhere, plus
# staticcheck when it happens to be installed (never required — the
# repo stays stdlib-only).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

cover:
	$(GO) test -cover ./...

# Hot-path benchmarks (evaluator cache + engine generations), captured
# as machine-readable JSON. BENCH_pr3.json is committed so speedups are
# reviewable: compare ns/op of EvalTreeResolve vs EvalTreeCached, and
# lp_solves/gen of EngineStep against L*S+U for the config.
# BENCH_pr4.json adds StepWithSearchStats: an observed generation
# (search-dynamics stats + lineage on) must stay within 5% of EngineStep.
# BENCH_pr6.json adds StepWithSpans: a span-traced generation must stay
# within 2% of EngineStep. BENCH_pr7.json adds RouteSubmit: the fleet
# router's own per-submission overhead (admit, route, spool, proxy) —
# microseconds against jobs that run for seconds. BENCH_pr8.json adds
# EvalProgram500x30 (compiled bytecode hot path, 0 allocs/op — compare
# against EvalTree500x30 and EvalTreeWith500x30). BENCH_pr9.json adds
# StepWithSubscribers: a generation with the live-event ring and four
# SSE-style subscribers attached must stay within 2% of EngineStep.
# Compare captures with `make bench-diff`.
#
# The engine-step benchmarks step ONE engine b.N times and GP trees grow
# across generations, so their ns/op depends on the iteration count the
# framework picks — they run at a pinned -benchtime=150x so EngineStep,
# StepWithSearchStats, StepWithSpans and StepWithSubscribers measure
# the same 150 generations and captures stay comparable across runs.
bench: bench-preflight
	$(GO) test -run XXX -bench 'EvalTree|EvalProgram|Prepare|Rotating' -benchmem \
		./internal/bcpop/ | tee bench_pr10.txt
	$(GO) test -run XXX -bench 'EngineStep|StepWithSearchStats|StepWithSpans' -benchtime=150x -benchmem \
		./internal/core/ | tee -a bench_pr10.txt
	$(GO) test -run XXX -bench 'StepWithSubscribers' -benchtime=150x -benchmem \
		./internal/serve/ | tee -a bench_pr10.txt
	$(GO) test -run XXX -bench 'RouteSubmit' -benchmem \
		./internal/cluster/ | tee -a bench_pr10.txt
	$(GO) run carbon/cmd/benchjson -out BENCH_pr10.json < bench_pr10.txt

# Refuse to benchmark while a stray daemon from an interrupted smoke run
# is eating the machine — on a small box that skews every ns/op.
bench-preflight:
	$(GO) run carbon/cmd/smokecheck

# Flag >10% ns/op regressions between the previous committed capture and
# the current one (rerun `make bench` first on a quiet machine).
bench-diff:
	$(GO) run carbon/cmd/benchjson -diff BENCH_pr9.json BENCH_pr10.json

# One-iteration benchmark pass: proves every benchmark (and the benchjson
# parser) still runs, without paying for measurement. Part of `check`.
bench-smoke: bench-preflight
	$(GO) test -run XXX -bench 'EvalTree|EvalProgram|Prepare|EngineStep|Rotating|StepWithSearchStats|StepWithSpans|StepWithSubscribers|RouteSubmit|SolveCovering|WarmResolve' -benchtime=1x -benchmem \
		./internal/lp/ ./internal/bcpop/ ./internal/core/ ./internal/serve/ ./internal/cluster/ | $(GO) run carbon/cmd/benchjson >/dev/null

# The repo benchmark (benchmark/, its own module) has a smoke test that
# the root `go test ./...` does not reach; run it so a core API change
# cannot silently break the benchmark build.
bench-module:
	$(GO) -C benchmark test ./...

# Analyzer self-check: synthetic healthy/pathological traces through the
# whole carbonstat pipeline (parse, demux, summarize, flag, diff).
stat-smoke:
	$(GO) run carbon/cmd/carbonstat -selfcheck

# The original full sweep: every benchmark in the tree.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Laptop-scale reproduction of every table and figure (see EXPERIMENTS.md).
quick:
	$(GO) run carbon/cmd/blbench -all -csv results -svg results

# The paper-faithful protocol: 30 runs x 50k evaluations per level.
full:
	$(GO) run carbon/cmd/blbench -all -full -csv results-full -svg results-full

# Race the five bi-level architectures under equal budgets.
taxonomy:
	$(GO) run carbon/cmd/blbench -taxonomy

# The live-process smoke gates: real carbond/carbonfleet binaries driven
# over HTTP, each a scenario on the internal/smoketest harness. `smoke`
# runs all five in one go test invocation; each <gate>-smoke runs one.
#   serve-smoke  SIGKILL and SIGTERM mid-run; the resumed job is bit-identical
#   chaos-smoke  LP faults, torn writes and a SIGKILL lose no job; a
#                permanent outage dead-letters after exactly 3 attempts
#   trace-smoke  a caller-traced job survives an LP retry and a SIGKILL as
#                one parent-linked trace that `carbonstat -spans` renders
#   fleet-smoke  3 workers + router: round-robin, 429 admission, failover,
#                revival sweep, networked islands, cross-node trace
#   obs-smoke    streamed jobs stay bit-identical with the reference's LP
#                solves, Last-Event-ID resume across failover, federated
#                counter sums, alert fire/clear, `carbontop -once`
SMOKE = $(GO) test -tags smoke -count=1 -run

smoke:
	$(SMOKE) '^Test(Serve|Chaos|Trace|Fleet|Obs)$$' ./internal/smoketest/

serve-smoke:
	$(SMOKE) '^TestServe$$' ./internal/smoketest/

chaos-smoke:
	$(SMOKE) '^TestChaos$$' ./internal/smoketest/

trace-smoke:
	$(SMOKE) '^TestTrace$$' ./internal/smoketest/

fleet-smoke:
	$(SMOKE) '^TestFleet$$' ./internal/smoketest/

obs-smoke:
	$(SMOKE) '^TestObs$$' ./internal/smoketest/

examples:
	$(GO) run carbon/examples/quickstart
	$(GO) run carbon/examples/linearbilevel
	$(GO) run carbon/examples/hyperheuristic
	$(GO) run carbon/examples/cloudpricing
	$(GO) run carbon/examples/multicustomer
	$(GO) run carbon/examples/trilevel
	$(GO) run carbon/examples/packing

clean:
	rm -rf results results-full test_output.txt bench_output.txt bench_pr3.txt bench_pr4.txt bench_pr6.txt bench_pr7.txt bench_pr8.txt bench_pr9.txt bench_pr10.txt
