# Targets used verbatim by .github/workflows/ci.yml.
GO ?= go

.PHONY: build test lint bench bench-json bench-check binaries fuzz-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Static analysis: go vet, simplified-gofmt cleanliness, the repo-specific
# uflint suite (detwall, cloneguard, batchcontract) over every package and
# its tests, and the allocfree escape gate (-escapes) against the committed
# allowlist in internal/lint/testdata/hotpath.allow.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi
	$(GO) run ./cmd/uflint ./...
	$(GO) run ./cmd/uflint -escapes ./...

# One smoke iteration of every paper benchmark (and the engine speedup
# benchmark); drop -benchtime for real measurements.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Machine-readable benchmark results: the same smoke run streamed as
# test2json events into BENCH_<date>.json, for tracking results over time.
# The HTTP-layer admission benchmark is appended to the same stream so daemon
# throughput and p99 admission latency are recorded (reported, not gated).
# The SubmitBatch pair is re-run at a steadier iteration count because
# benchcheck gates their ns/op ratio (zero-fault FaultyDevice wrapper within
# 5% of the raw path) and a 1x sample is too noisy to pin; the re-run
# overwrites the 1x numbers since the parser keeps the last occurrence.
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x -json . > BENCH_$$(date +%Y%m%d).json
	$(GO) test -run '^$$' -bench BenchmarkJobAdmission -benchtime 1x -json ./internal/server >> BENCH_$$(date +%Y%m%d).json
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitBatch$$|BenchmarkSubmitBatchFaultyNoop$$' -benchtime 2000x -json . >> BENCH_$$(date +%Y%m%d).json

# Compare the latest bench-json output against the committed baseline; fails
# on >20% ns/op regression of the pinned benchmarks (EngineSpeedup, Table3,
# SubmitBatch, ReplayParallel, TraceScan) or when the zero-fault wrapper
# ratio pin exceeds its limit.
# The newest dated file is picked by mtime so a run spanning midnight still
# compares what bench-json just wrote.
bench-check: bench-json
	$(GO) run ./cmd/benchcheck -baseline BENCH_baseline.json "$$(ls -t BENCH_2*.json | head -1)"

# Run every native fuzz target for a short burst on top of its committed
# seed corpus — enough to catch parser panics and round-trip drift in CI
# without turning the pipeline into a fuzzing farm.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseArraySpec$$' -fuzztime $(FUZZTIME) ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzReadSummaryCSV$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadRTSeriesCSV$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadUTR$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzJSONFloatMatchesEncodingJSON$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitBatchEquivalence$$' -fuzztime $(FUZZTIME) ./internal/device
	$(GO) test -run '^$$' -fuzz '^FuzzChipRunEquivalence$$' -fuzztime $(FUZZTIME) ./internal/flash
	$(GO) test -run '^$$' -fuzz '^FuzzVictimQueueMatchesLazyHeap$$' -fuzztime $(FUZZTIME) ./internal/ftl

# Compile every cmd/* and examples/* binary so example drift breaks the
# build instead of rotting silently.
binaries:
	@mkdir -p bin
	@set -e; for d in ./cmd/* ./examples/*; do \
		[ -d "$$d" ] || continue; \
		echo "building $$d"; \
		$(GO) build -o "bin/$$(basename $$d)" "$$d"; \
	done

clean:
	rm -rf bin
