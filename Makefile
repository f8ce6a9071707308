# Development entry points. `make check` runs the CI gate
# (.github/workflows/ci.yml) except two steps: the rmperf smoke run, which
# only checks that the perf harness still runs and prints wall-clock
# numbers that depend on the machine (`make bench-perf` is the real run),
# and `fuzz-smoke`, which spends about two minutes fuzzing. Run
# `make check` before sending a change.

GO ?= go

.PHONY: build cross fmt vet lint lint-fixtures test test-benchmark test-simdebug test-golden race fuzz-smoke bench results results-check bench-perf bench-micro check

build:
	$(GO) build ./...

# Cross-builds: vet for arm64, which has no hash kernel and runs
# internal/tensor's generic path, and build for darwin, the other target
# of internal/model's resident_unix.go. Then build for arm64, ppc64le and
# riscv64, whose compilers may fuse x*y+z into one instruction with a
# single rounding (amd64's never does), and fail on any fused multiply-add
# in the module's assembly: a product that feeds a sum is written with an
# explicit conversion, which rounds it, so every record is the same on
# every CPU.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOOS=darwin $(GO) build ./...
	@for arch in arm64 ppc64le riscv64; do \
		GOARCH=$$arch $(GO) build ./... || exit 1; \
		fused="$$(GOARCH=$$arch $(GO) build -gcflags=-S ./... 2>&1 | grep -E '[[:space:]]F[A-Z]*M(ADD|SUB)[A-Z]*[[:space:]]')"; \
		if [ -n "$$fused" ]; then \
			echo "fused multiply-adds on $$arch (write each product as an explicit conversion):"; \
			echo "$$fused"; exit 1; \
		fi; \
	done

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Domain-aware static analysis: determinism (wallclock, mapiter), unit
# safety (units), error hygiene (errcheck), panic diagnosability
# (panicmsg), concurrency discipline (goroutine, locks; lock copies are
# left to vet's copylocks) and suppression hygiene (allowaudit). CI runs
# the same gate as `rmlint -json`.
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
	$(GO) test -run='^$$' -fuzz=FuzzReplayDispatch -fuzztime=10s ./internal/serving/
	$(GO) test -run='^$$' -fuzz=FuzzInferRequest -fuzztime=10s ./cmd/rmserve/
	$(GO) test -run='^$$' -fuzz=FuzzModelsConfig -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzArrayPartitionConfig -fuzztime=10s ./internal/array/
	$(GO) test -run='^$$' -fuzz=FuzzEVCacheOps -fuzztime=10s ./internal/evcache/
	$(GO) test -run='^$$' -fuzz=FuzzBlockingPipelineLanes -fuzztime=10s ./internal/sim/
	$(GO) test -run='^$$' -fuzz=FuzzBlockingPipelineBusiestLane -fuzztime=10s ./internal/sim/
	$(GO) test -run='^$$' -fuzz=FuzzHashFloats -fuzztime=10s ./internal/tensor/

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

# Host micro-benchmarks: every case in internal/perfcase, the one table
# that rmperf's "micro" section also reports. -benchtime=100x keeps it a
# smoke run: fixed iteration count, so it is fast and deterministic enough
# for CI. The target fails when TestCeilings finds a case's allocs/op or
# B/op above the ceiling the case declares.
bench-micro:
	$(GO) test -count=1 -run=TestCeilings -bench=. -benchtime=100x -benchmem ./internal/perfcase/

check: build cross fmt vet lint test test-benchmark test-simdebug test-golden race results-check bench-micro
	@echo "all checks passed"
