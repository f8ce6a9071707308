# Development entry points. `make check` mirrors the CI gate
# (.github/workflows/ci.yml); run it before sending a change.

GO ?= go

.PHONY: build fmt vet lint lint-fixtures test test-benchmark test-simdebug test-golden test-faults test-obs test-array race fuzz-smoke bench bench-perf bench-micro check

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

# Re-run the simulator-heavy packages with runtime invariant checks on.
test-simdebug:
	$(GO) test -tags simdebug ./internal/sim/ ./internal/flash/ ./internal/core/ ./internal/ftl/ ./internal/ssd/ ./internal/engine/

# Verify every pinned end-to-end artifact checksum. Regenerate (after an
# intended calibration or behaviour change) with:
#   go test ./internal/conformance/ -run TestGolden -update
test-golden:
	$(GO) test -count=1 ./internal/conformance/

# Fault-containment and fault-injection suite under the race detector:
# panicking backends, dead-on-arrival contexts and per-request errors in
# the pool; the seeded flash fault plan's determinism and typed-error
# surfacing on the device; the out-of-range replay path end to end.
test-faults:
	$(GO) test -race -count=1 \
		-run 'TestShard|TestSubmitDead|TestPerRequest|TestPool|TestFault|TestUncorrectable|TestReplayOutOfRange' \
		./internal/serving/ ./internal/core/ ./cmd/rmserve/

# Observability suite under the race detector: the obs unit tests, the
# tracing-on/off differential and byte-determinism layer, and the rmserve
# /metrics + traced-replay surface tests.
test-obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'TestMetrics|TestReplayReportTraced|TestReplayTracer|TestMountPprof' ./cmd/rmserve/

# Multi-SSD array suite under the race detector: the partition property
# tests, the one-device/N-device differential layer, span and fault
# invariants, the rmserve array serving surface, and the replay/array
# conformance golden.
test-array:
	$(GO) test -race -count=1 ./internal/array/
	$(GO) test -race -count=1 -run 'TestArray' ./cmd/rmserve/
	$(GO) test -race -count=1 -run 'TestGolden|TestRenderDeterministic' ./internal/conformance/

race:
	$(GO) test -race ./...

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseCriteoLine -fuzztime=10s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzAnalyze -fuzztime=10s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzConfigValidate -fuzztime=10s ./internal/model/
	$(GO) test -run='^$$' -fuzz=FuzzCriteoSource -fuzztime=10s ./internal/serving/
	$(GO) test -run='^$$' -fuzz=FuzzInferRequest -fuzztime=10s ./cmd/rmserve/
	$(GO) test -run='^$$' -fuzz=FuzzArrayPartitionConfig -fuzztime=10s ./internal/array/
	$(GO) test -run='^$$' -fuzz=FuzzEVCacheOps -fuzztime=10s ./internal/evcache/

bench:
	$(GO) run ./cmd/rmbench -exp all

# Host-side perf trajectory: times a fixed sweep at -parallel 1 vs N and
# hammers the sharded serving pool, writing BENCH_simcore.json.
bench-perf:
	$(GO) run ./cmd/rmperf

# Allocation micro-benchmarks for the serving/lookup/cache hot paths.
# -benchtime=100x keeps it a smoke run: fixed iteration count, so it is
# fast and deterministic enough for CI while still exercising
# b.ReportAllocs on every hot path.
bench-micro:
	$(GO) test -run='^$$' -bench=BenchmarkPoolSubmit -benchtime=100x -benchmem ./internal/serving/
	$(GO) test -run='^$$' -bench=BenchmarkLookupPoolHotTrace -benchtime=100x -benchmem ./internal/engine/
	$(GO) test -run='^$$' -bench='BenchmarkEVCacheHit|BenchmarkEVCacheMissFill' -benchtime=100x -benchmem ./internal/evcache/

check: build fmt vet lint test test-benchmark test-simdebug test-faults test-obs test-array race
	@echo "all checks passed"
