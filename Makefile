# Targets used verbatim by .github/workflows/ci.yml.
GO ?= go

.PHONY: build test lint bench binaries fuzz-smoke clean

build:
	$(GO) build ./...

# The race-detector run, then the whole suite once more compiled for a 32-bit
# int (runs natively on amd64): both byte goldens and the state-byte pin must
# hold there too.
test:
	$(GO) test -race ./...
	GOARCH=386 $(GO) test ./...

# Static analysis: go vet, simplified-gofmt cleanliness, the repo-specific
# uflint suite (detwall, cloneguard, batchcontract) over every package and
# its tests, and the allocfree escape gate (-escapes) against the committed
# allowlist in internal/lint/testdata/hotpath.allow. Last, the packages whose
# floating point reaches an output byte are cross-compiled for arm64 and must
# hold no fused multiply-add: a fused op rounds once where amd64 rounds twice,
# so "deterministic" would be a per-architecture claim (no emulator here, hence
# a static check; an explicit float64(a*b) conversion is the fusion barrier).
lint:
	$(GO) vet ./...
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi
	$(GO) run ./cmd/uflint ./...
	$(GO) run ./cmd/uflint -escapes ./...
	@if GOARCH=arm64 $(GO) build -gcflags=-S $(addprefix ./internal/,stats trace ftl device core methodology workload report paperexp profile) 2>&1 \
		| grep -E 'F(N)?M(ADD|SUB)'; then echo "arm64 fuses these: wrap the product in float64(...)"; exit 1; \
	fi

# One iteration of every paper-figure and ablation benchmark in bench_test.go:
# they regenerate the paper's numbers as custom metrics and are not a speed
# gate. "Did this get slower" is `bash benchmark/run.sh` on both commits and
# `go run ./benchmark compare A.json B.json`.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Run every native fuzz target for a short burst on top of its committed
# seed corpus — enough to catch parser panics and round-trip drift in CI
# without turning the pipeline into a fuzzing farm. The two stateful FTL
# targets take hundreds of steps an input, so they skip minimization: it would
# eat the whole burst on the first interesting input.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseArraySpec$$' -fuzztime $(FUZZTIME) ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzReadSummaryCSV$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadRTSeriesCSV$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadUTR$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzJSONFloatMatchesEncodingJSON$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyUTRMatchesScanner$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzCRC64Combine$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitBatchEquivalence$$' -fuzztime $(FUZZTIME) ./internal/device
	$(GO) test -run '^$$' -fuzz '^FuzzChipRunEquivalence$$' -fuzztime $(FUZZTIME) ./internal/flash
	$(GO) test -run '^$$' -fuzz '^FuzzVictimQueueMatchesLazyHeap$$' -fuzztime $(FUZZTIME) ./internal/ftl
	$(GO) test -run '^$$' -fuzz '^FuzzLogTableMatchesMap$$' -fuzztime $(FUZZTIME) ./internal/ftl
	$(GO) test -run '^$$' -fuzz '^FuzzPageFTLStateful$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/ftl
	$(GO) test -run '^$$' -fuzz '^FuzzBlockFTLStateful$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/ftl

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
