# Developer entry points. Everything is stdlib Go; no tool dependencies.
# `make check` is the pre-commit gate; `make fuzz` runs the evaluator's
# fuzz targets for 10 s each and is not part of `check`.

GO ?= go

.PHONY: all build vet lint test race check cover fuzz bench-smoke bench-module bench-all quick full taxonomy examples smoke serve-smoke chaos-smoke trace-smoke fleet-smoke obs-smoke clean

all: build vet test

# The full pre-commit gate: compile, static checks, lint, tests, race
# detector, a one-iteration pass over the internal benchmarks (so they
# cannot rot), the repo benchmark's own smoke test and the five
# live-process smoke gates. Performance is measured by benchmark/
# (`bash benchmark/run.sh`), not here.
check: build vet lint test race bench-smoke bench-module smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./internal/smoketest/
	$(GO) -C benchmark vet ./...

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

# Differential fuzzing of the GP evaluator, 10 s per target: the lane
# VM against the tree walker (FuzzCompiledEval), the exact fmod against
# math.Mod (FuzzMod) and the S-expression parser (FuzzParse). go test
# fuzzes one target per invocation. Not part of `check`; the seed
# corpora already run as ordinary tests there.

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledEval$$' -fuzztime 10s ./internal/gp/
	$(GO) test -run '^$$' -fuzz '^FuzzMod$$' -fuzztime 10s ./internal/gp/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/gp/

# One-iteration pass over every benchmark under internal/: proves each
# still runs, without paying for measurement, and fails when any does.
# The root-package paper benchmarks (Tables III/IV, Figs 4/5, ablation,
# taxonomy) stay out; `make bench-all` runs them. Part of `check`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/...

# The repo benchmark (benchmark/, its own module) has a smoke test that
# the root `go test ./...` does not reach; run it so a core API change
# cannot silently break the benchmark build.
bench-module:
	$(GO) -C benchmark test ./...

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
	rm -rf results results-full test_output.txt bench_output.txt
