# Developer entry points. Everything is stdlib Go; no tool dependencies.
# `make check` is the pre-commit gate; `make fuzz` runs the evaluator's
# fuzz targets for 10 s each and is not part of `check`.

GO ?= go

.PHONY: all build vet lint test softfma race check cross cover fuzz bench-smoke bench-module bench-all quick full taxonomy examples smoke serve-smoke chaos-smoke trace-smoke fleet-smoke obs-smoke clean

all: build vet test

# The full pre-commit gate: compile, static checks, lint, tests, race
# detector, the evaluator's tests on software fused multiply-add, an
# arm64 cross-build, a one-iteration pass over the internal
# benchmarks (so they cannot rot), the repo benchmark's own smoke test,
# the five live-process smoke gates and a run of every example (under a
# second together once built). Performance is measured by benchmark/
# (`bash benchmark/run.sh`), not here.
check: build vet lint test softfma race cross bench-smoke bench-module smoke examples

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

# Cross-build and vet for arm64, so the non-amd64 files (the LP's
# portable pricing kernel, gp's Go-only lane path, the CPU probe's
# defaults) and their build tags cannot rot, and fail if the compiler
# fused any multiply-add in internal/lp: a fused instruction rounds once
# where amd64 rounds twice, so the same solve would give other bits on
# arm64.
FUSED = FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADDS|FMSUBS|FNMADDS|FNMSUBS
cross:
	GOARCH=arm64 $(GO) vet ./internal/lp ./internal/gp ./internal/cpufeat
	GOARCH=arm64 $(GO) build ./...
	@fused=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/lp 2>&1 | grep -cE '\b($(FUSED))\b'); \
		if [ "$$fused" != 0 ]; then echo "cross: $$fused fused multiply-add instructions in arm64 internal/lp"; exit 1; fi

# The evaluator's Go mod loop (gp.modLanes) rounds through math.FMA.
# GODEBUG=cpu.fma=off switches math.FMA to its software routine but not
# the CPU probe (internal/cpufeat), so the lane kernels still run: the
# tests that force the Go loops then hold software math.FMA to the
# hardware kernel's bits.
# internal/core stays out: its island golden draws on math.Exp (Pow
# calls it), whose amd64 assembly takes a fused path when the feature
# bit is set and gives other bits without it.
softfma:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/gp ./internal/covering

race:
	$(GO) test -race ./internal/...

cover:
	$(GO) test -cover ./...

# Fuzzing, 10 s per target: the runner on one compiled tree against the
# tree walker, lane by lane (FuzzCompiledEval), a hash-consed forest of
# 2–5 trees sharing subtrees against the tree walker, root by root
# (FuzzForestEval), the exact fmod against math.Mod (FuzzMod), the
# S-expression parser (FuzzParse) and the LP's warm start from garbled
# bases (FuzzSolveFromBasis: a certified optimum or the cold solve, never
# a panic) and the LP pricing kernels against the column loop
# (FuzzPriceKernels: the same bits). go test fuzzes one target per
# invocation. Not part of `check`; the seed corpora already run as
# ordinary tests there.

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledEval$$' -fuzztime 10s ./internal/gp/
	$(GO) test -run '^$$' -fuzz '^FuzzForestEval$$' -fuzztime 10s ./internal/gp/
	$(GO) test -run '^$$' -fuzz '^FuzzMod$$' -fuzztime 10s ./internal/gp/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/gp/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveFromBasis$$' -fuzztime 10s ./internal/lp/
	$(GO) test -run '^$$' -fuzz '^FuzzPriceKernels$$' -fuzztime 10s ./internal/lp/

# One-iteration pass over every benchmark under internal/: proves each
# still runs, without paying for measurement, and fails when any does.
# Of the root-package paper benchmarks only the four that run code no
# unit test drives end to end come along (the nested and CODBA
# baselines, the tri-level chain, core's DE and point-mutation breeding);
# Tables III/IV and Figs 4/5 stay out, and `make bench-all` runs them.
# Part of `check`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/...
	$(GO) test -run '^$$' -bench '^Benchmark(Taxonomy|TriLevel|AblationDEVariation|AblationPointMutation)$$' -benchtime=1x .

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
#                revival sweep, cross-node trace
#   obs-smoke    streamed jobs stay bit-identical with the reference's LP
#                solves, Last-Event-ID resume across failover
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

clean:
	rm -rf results results-full test_output.txt bench_output.txt
