# Development entry points. `make check` runs the CI gate
# (.github/workflows/ci.yml) except two steps: the rmperf smoke run, which
# only checks that the perf harness still runs and prints wall-clock
# numbers that depend on the machine (`make bench-perf` is the real run),
# and `fuzz-smoke`, which spends about two minutes fuzzing. Run
# `make check` before sending a change.

GO ?= go

.PHONY: build fmt vet lint lint-fixtures test test-benchmark test-simdebug test-golden race fuzz-smoke bench results results-check bench-perf bench-micro check

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Domain-aware static analysis: determinism (wallclock, mapiter), unit
# safety (units), error hygiene (errcheck), panic diagnosability
# (panicmsg), concurrency discipline (goroutine, locks) and suppression
# hygiene (allowaudit). CI runs the same gate as `rmlint -json`.
lint:
	$(GO) run ./cmd/rmlint ./...

# Fast iteration on the analyzers themselves: only the fixture-driven
# lint tests, skipping the whole-module dogfood load.
lint-fixtures:
	$(GO) test ./internal/lint/ -run 'TestAnalyzerFixtures|TestDirectives|TestAllowAudit'

test:
	$(GO) test ./...

# The benchmark is its own module, so `go test ./...` above never reaches
# its tests: the tiny-scale pinned prediction checksums, the traced and
# leg-to-leg replay agreement checks and the live bit-identity check.
test-benchmark:
	cd benchmark && $(GO) test ./...

# Re-run the simulator-heavy packages, the host page cache and baselines
# that share the EV cache's LRU, and the array, serving and conformance
# layers above them, with runtime invariant checks on. CI runs
# this target, so the package list lives only here.
test-simdebug:
	$(GO) test -tags simdebug ./internal/sim/ ./internal/flash/ ./internal/core/ ./internal/ftl/ ./internal/ssd/ ./internal/engine/ ./internal/evcache/ \
		./internal/hostio/ ./internal/baseline/ ./internal/array/ ./internal/serving/ ./internal/conformance/

# Verify every pinned end-to-end artifact checksum. Regenerate (after an
# intended calibration or behaviour change) with:
#   go test ./internal/conformance/ -run TestGolden -update
test-golden:
	$(GO) test -count=1 ./internal/conformance/

# The whole module under the race detector: every package's tests, among
# them the pool's fault containment, the seeded fault plan, the obs
# differential and determinism layer, the array differential and property
# suites, multi-model serving and the conformance goldens.
race:
	$(GO) test -race -count=1 ./...

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseCriteoLine -fuzztime=10s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzAnalyze -fuzztime=10s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzConfigValidate -fuzztime=10s ./internal/model/
	$(GO) test -run='^$$' -fuzz=FuzzCriteoSource -fuzztime=10s ./internal/serving/
	$(GO) test -run='^$$' -fuzz=FuzzDeviceShard -fuzztime=10s ./internal/serving/
	$(GO) test -run='^$$' -fuzz=FuzzInferRequest -fuzztime=10s ./cmd/rmserve/
	$(GO) test -run='^$$' -fuzz=FuzzModelsConfig -fuzztime=10s ./cmd/rmserve/
	$(GO) test -run='^$$' -fuzz=FuzzArrayPartitionConfig -fuzztime=10s ./internal/array/
	$(GO) test -run='^$$' -fuzz=FuzzEVCacheOps -fuzztime=10s ./internal/evcache/
	$(GO) test -run='^$$' -fuzz=FuzzBlockingPipelineLanes -fuzztime=10s ./internal/sim/
	$(GO) test -run='^$$' -fuzz=FuzzBlockingPipelineBusiestLane -fuzztime=10s ./internal/sim/

bench:
	$(GO) run ./cmd/rmbench -exp all

# Rewrite the checked experiment record EXPERIMENTS.md quotes: every table
# at paper scale (about a minute on 2 vCPUs). The simulator is deterministic,
# so CI reruns this and fails when results_full.txt changes;
# results_full.log holds the per-experiment wall times, which differ on
# every run, so it is not tracked (.gitignore lists it).
results:
	$(GO) run ./cmd/rmbench -exp all -iters 40 >results_full.txt 2>results_full.log

# The committed experiment record must be what the code produces; a change
# that moves a table commits the regenerated file. CI runs this target.
results-check: results
	git diff --exit-code results_full.txt

# Host-side perf trajectory: times a fixed sweep at -parallel 1 vs N and
# hammers the sharded serving pool, writing BENCH_simcore.json.
bench-perf:
	$(GO) run ./cmd/rmperf

# Allocation micro-benchmarks for the serving/lookup/cache hot paths, for
# the host MLP's MatVec kernel (its output vector only), for building a
# model (one weight slice however deep its towers) and for building one
# more shard of a hosted model.
# -benchtime=100x keeps it a smoke run: fixed iteration count, so it is
# fast and deterministic enough for CI while still exercising
# b.ReportAllocs on every hot path. The target fails when a benchmark's
# allocs/op rises above its ceiling in ALLOC_CEILINGS (frozen at the
# values measured when the gate was added; lower a ceiling when a change
# removes allocations), when its B/op rises above its ceiling in
# BYTES_CEILINGS (about 1.5x the value measured when the gate was added:
# BenchmarkNewFromModel allocated 59 KB per shard once every device read
# the hosted model's weights in place, and one per-device copy of RMC3's
# top L0 would add 720 KB), or when a gated benchmark does not run.
ALLOC_CEILINGS := BenchmarkPoolSubmit=2 BenchmarkDeviceShardServe=78 BenchmarkLookupPoolHotTrace=3 BenchmarkLookupPoolCachedHotTrace=3 BenchmarkEVCacheHit=0 BenchmarkEVCacheMissFill=0 BenchmarkPageCacheTouch=0 BenchmarkBuild=4 BenchmarkMatVec=1
BYTES_CEILINGS := BenchmarkNewFromModel=89000

bench-micro:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	{ $(GO) test -run='^$$' -bench='BenchmarkPoolSubmit|BenchmarkDeviceShardServe' -benchtime=100x -benchmem ./internal/serving/ && \
	  $(GO) test -run='^$$' -bench='BenchmarkLookupPoolHotTrace|BenchmarkLookupPoolCachedHotTrace' -benchtime=100x -benchmem ./internal/engine/ && \
	  $(GO) test -run='^$$' -bench='BenchmarkEVCacheHit|BenchmarkEVCacheMissFill' -benchtime=100x -benchmem ./internal/evcache/ && \
	  $(GO) test -run='^$$' -bench=BenchmarkPageCacheTouch -benchtime=100x -benchmem ./internal/hostio/ && \
	  $(GO) test -run='^$$' -bench=BenchmarkBuild -benchtime=100x -benchmem ./internal/model/ && \
	  $(GO) test -run='^$$' -bench=BenchmarkMatVec -benchtime=100x -benchmem ./internal/tensor/ && \
	  $(GO) test -run='^$$' -bench=BenchmarkNewFromModel -benchtime=100x -benchmem ./internal/core/; \
	} >"$$out" 2>&1; st=$$?; cat "$$out"; [ $$st -eq 0 ] && \
	awk -v allocs='$(ALLOC_CEILINGS)' -v bytes='$(BYTES_CEILINGS)' ' \
		function load(list, unit,    n, i, kv, p) { n = split(list, kv, " "); for (i = 1; i <= n; i++) { split(kv[i], p, "="); ceil[p[1] " " unit] = p[2] } } \
		BEGIN { load(allocs, "allocs/op"); load(bytes, "B/op") } \
		/^Benchmark/ { name = $$1; sub(/-[0-9]+$$/, "", name); \
			for (i = 2; i < NF; i++) { key = name " " $$(i+1); if (key in ceil) { ran[key] = 1; \
				if ($$i + 0 > ceil[key] + 0) { printf "bench-micro: %s: %s %s, ceiling %s\n", name, $$i, $$(i+1), ceil[key]; bad = 1 } } } } \
		END { for (k in ceil) if (!(k in ran)) { printf "bench-micro: %s (%s) did not run\n", substr(k, 1, index(k, " ") - 1), substr(k, index(k, " ") + 1); bad = 1 } exit bad }' "$$out"

check: build fmt vet lint test test-benchmark test-simdebug test-golden race results-check bench-micro
	@echo "all checks passed"
