# Developer and CI entry points. The benchmark-regression gate keeps
# BENCH_baseline.json honest: `make bench-check` fails when B/op or
# allocs/op of a gated benchmark worsens by >30% against the committed
# baseline, on any machine; `make bench-baseline` refreshes it. Time is
# not gated here (ns/op is only comparable on the machine that wrote it):
# bench/run.sh compares parent and change in alternating pairs. `make
# golden` is the byte contract, `make loc` the line count ROADMAP tracks.

GO          ?= go
BENCH_COUNT ?= 3
BENCH_FILE  ?= BENCH_baseline.json
# Set BENCH_JSON to a path to also write bench-check's comparison as a
# machine-readable report (CI archives it as an artifact).
BENCH_JSON ?=

.PHONY: build test race vet fmt-check loc golden golden-update bench bench-baseline bench-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt; prints the offenders.
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$files"; exit 1; \
	fi

# Non-test Go outside bench/: the line count ROADMAP's design aim tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | tail -1

# Output bytes are a contract: GOLDEN.sha256 pins the sha256 of each
# listed command's stdout. `make golden` re-runs them on this checkout
# and fails on any that moved; `make golden-update` rewrites the hashes
# (say which lines moved, and why, in CHANGES.md).
golden:
	@GO=$(GO) sh tools/golden.sh

golden-update:
	@GO=$(GO) sh tools/golden.sh update

# The gated benchmark set: the sweep engine (all execution modes), the
# sim engine's hot tick loop (single and composed scenarios), a whole
# short run on a warm world (what a run adds to a world other runs have
# used: forks and its own changes — allocs/op and B/op must not scale
# with the world), its incremental steady-state paths (dirty-subtree probe refresh and the
# cache's single-VRP delta apply), the RTR churn round trip (full-set
# diff, delta, two routers polling), one delta-scoped revalidation pass
# on a forked router (what a decision that moves allocates; the pass that
# moves none is held at 0 allocs by the router package's own test), the
# serving layer's lock-free lookup path at 1/4/8 goroutines and its
# publish path (a 16-VRP delta on a 300k-VRP live set: allocs/op says
# whether a publish costs the delta or the set), the radix
# covering walk it rests on (by address on a small tree, by route prefix
# on a 300 000-prefix one), a router's start against a 300 000-VRP RTR
# cache (dial, full sync, changed-prefix list: allocs/op says whether a
# sync costs its result or its records), the distributed coordinator's
# decode-and-assemble merge path, and the web-scale path — sharded
# world generation throughput, the packed domain table's build cost and
# bytes/domain, the lookup path against a million-domain table, and a
# daemon's -vrps start-up read of 300 000 CSV rows, shuffled and in order
# — the paper's own pipeline, measure.Run over the 100 000-domain
# study world, and a world's RPKI (21 CAs, 72 ROAs) issued and validated.
# allocs/op and B/op are what the gate holds them all to.
# Fixed -benchtime keeps run time bounded; -count $(BENCH_COUNT) gives
# benchgate best-of folding.
bench:
	@$(GO) test -run '^$$' -bench 'BenchmarkSweep$$' -benchtime 2x -benchmem -count $(BENCH_COUNT) ./internal/sweep
	@$(GO) test -run '^$$' -bench 'BenchmarkSimTick$$' -benchtime 200x -benchmem -count $(BENCH_COUNT) .
	@$(GO) test -run '^$$' -bench 'BenchmarkComposedSimTick$$' -benchtime 200x -benchmem -count $(BENCH_COUNT) .
	@$(GO) test -run '^$$' -bench 'BenchmarkSimSetup$$' -benchtime 20x -benchmem -count $(BENCH_COUNT) .
	@$(GO) test -run '^$$' -bench 'BenchmarkProbeIncremental$$' -benchtime 100x -benchmem -count $(BENCH_COUNT) .
	@$(GO) test -run '^$$' -bench 'BenchmarkTruthSetDelta$$' -benchtime 10000x -benchmem -count $(BENCH_COUNT) .
	@$(GO) test -run '^$$' -bench 'BenchmarkRTRChurn$$' -benchtime 200x -benchmem -count $(BENCH_COUNT) .
	@$(GO) test -run '^$$' -bench 'BenchmarkRevalidateAffected$$' -benchtime 2000x -benchmem -count $(BENCH_COUNT) ./internal/router
	@$(GO) test -run '^$$' -bench 'BenchmarkServeValidate$$' -benchtime 50000x -benchmem -count $(BENCH_COUNT) ./internal/serve
	@$(GO) test -run '^$$' -bench 'BenchmarkPublishSet$$' -benchtime 2000x -benchmem -count $(BENCH_COUNT) ./internal/serve
	@$(GO) test -run '^$$' -bench 'BenchmarkCovering$$' -benchtime 200000x -benchmem -count $(BENCH_COUNT) ./internal/radix
	@$(GO) test -run '^$$' -bench 'BenchmarkCoveringPrefix$$' -benchtime 200000x -benchmem -count $(BENCH_COUNT) ./internal/radix
	@$(GO) test -run '^$$' -bench 'BenchmarkClientReset$$' -benchtime 3x -benchmem -count $(BENCH_COUNT) ./internal/rtr
	@$(GO) test -run '^$$' -bench 'BenchmarkDistMerge$$' -benchtime 20x -benchmem -count $(BENCH_COUNT) ./internal/distsweep
	@$(GO) test -run '^$$' -bench 'BenchmarkWorldgen$$' -benchtime 1x -benchmem -count $(BENCH_COUNT) ./internal/webworld
	@$(GO) test -run '^$$' -bench 'BenchmarkBuildDomainTable$$' -benchtime 1x -benchmem -count $(BENCH_COUNT) ./internal/serve
	@$(GO) test -run '^$$' -bench 'BenchmarkServeValidate1M$$' -benchtime 20000x -benchmem -count $(BENCH_COUNT) ./internal/serve
	@$(GO) test -run '^$$' -bench 'BenchmarkReadCSV$$' -benchtime 3x -benchmem -count $(BENCH_COUNT) ./internal/rpki/vrp
	@$(GO) test -run '^$$' -bench 'BenchmarkPipeline$$' -benchtime 3x -benchmem -count $(BENCH_COUNT) .
	@$(GO) test -run '^$$' -bench 'BenchmarkRepository(Issue|Validate)$$' -benchtime 20x -benchmem -count $(BENCH_COUNT) ./internal/rpki/repo

bench-baseline:
	@$(MAKE) --no-print-directory bench | $(GO) run ./tools/benchgate -write $(BENCH_FILE)

bench-check:
	@$(MAKE) --no-print-directory bench | $(GO) run ./tools/benchgate -check $(BENCH_FILE) $(if $(BENCH_JSON),-json $(BENCH_JSON))

ci: build vet fmt-check test
