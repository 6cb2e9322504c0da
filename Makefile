# Development and CI entry points. `make ci` is the gate every change must
# pass: formatting, vet + the custom lint suite, build, the full test suite
# under the race detector (the experiment worker pool runs concurrently in
# several tests, so -race is mandatory, not optional), one iteration of
# every benchmark as a smoke test of the measurement loop, and the pipeline
# benchmark module.

GO ?= go

.PHONY: ci fmt fmt-check vet lint build test race bench perfbench bench-json experiments golden-smoke

ci: fmt-check vet lint build race bench perfbench

fmt:
	gofmt -w .

# Fails listing the offending files if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Custom analyzers (tools/analyzers): determinism rules over the pipeline
# packages and the run()-pattern/Close-error rules over cmd binaries. The
# selftest proves the analyzers still catch the known-bad fixtures before
# the clean repo run is trusted. The layering checks keep the evaluation
# packages (sampled estimate, exhaustive search) free of the placement
# layer, the search free of the sampled estimate, and randcell — shared
# test cells — out of every non-test import list.
PLACEMENT_PKGS = repro/internal/(anneal|baseline|core|split|wcg)
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/repolint -selftest
	$(GO) run ./cmd/repolint
	@deps="$$($(GO) list -deps ./internal/sample ./internal/optimal)" || exit 1; \
	bad="$$(echo "$$deps" | grep -E '^$(PLACEMENT_PKGS)$$')"; \
	if [ -n "$$bad" ]; then echo "sample/optimal depend on the placement layer:"; echo "$$bad"; exit 1; fi
	@deps="$$($(GO) list -deps ./internal/optimal)" || exit 1; \
	if echo "$$deps" | grep -qx 'repro/internal/sample'; then \
		echo "optimal depends on repro/internal/sample"; exit 1; fi
	@imps="$$($(GO) list -f '{{range .Imports}}{{$$.ImportPath}} {{.}}{{"\n"}}{{end}}' ./...)" || exit 1; \
	bad="$$(echo "$$imps" | awk '$$2 == "repro/internal/randcell" {print $$1}')"; \
	if [ -n "$$bad" ]; then echo "non-test code imports repro/internal/randcell:"; echo "$$bad"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The pipeline benchmark is its own module (perfbench/go.mod), so the root
# `./...` never builds it: vet and test it here, so a change to an internal
# API it uses fails locally, not first in CI. Its tests pin the seed-1
# outputs to perfbench/expected.json and the figure5 grid to
# experiments.Figure5.
perfbench:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# Machine-readable record of the pipeline hot paths (ns/op, B/op,
# allocs/op), converted to JSON by cmd/benchjson (each row names its own
# package) and committed so the perf trajectory is tracked per change.
# Every benchmark runs 5 times (-count 5) and benchjson records the median
# of each value with the ns/op range, plus the machine's CPU, CPU count,
# GOMAXPROCS and Go version: one run per commit could not track a change
# smaller than about a third. One run writes all three files on one
# machine: BENCH_gbsc.json holds the Section 4.4 merge-loop benchmarks
# plus the selector/scorer micro-benchmarks, the PH and HKC baselines, the
# profile-graph builds (BenchmarkWCGBuild: both WCGs of the scale-1.0
# vortex training trace; BenchmarkPerturbGraph: one perturbed copy of its
# TRG_place), the trace-replay engine benchmarks, among them the 16-layout
# panel on the direct-mapped walk (BenchmarkRunCompiledSerial16) and on
# the 2-way LRU walk (BenchmarkRunCompiledLRU16), perl's paper-scale PH,
# HKC and GBSC layouts on both walks (BenchmarkRunCompiledPaperDM and
# BenchmarkRunCompiledPaperLRU), and the exhaustive search
# (BenchmarkOptimalSearch: six procedures on an 8-line cache).
# Override BENCHTIME (e.g. BENCHTIME=1x in CI) to trade precision for
# speed.
BENCHTIME ?= 1s
GBSC_BENCHES = ^(BenchmarkHeaviestEdge|BenchmarkBestAlignment|BenchmarkBestAlignmentAssoc|BenchmarkMergeNodes|BenchmarkGBSCPlacement|BenchmarkPHPlacement|BenchmarkHKCPlacement|BenchmarkWCGBuild|BenchmarkPerturbGraph|BenchmarkRunTrace|BenchmarkRunTraceClassified|BenchmarkCompileTrace|BenchmarkRunCompiledSerial16|BenchmarkRunCompiledLRU16|BenchmarkRunCompiledPaperDM|BenchmarkRunCompiledPaperLRU|BenchmarkOptimalSearch)$$

# TRG ingest throughput (BENCH_trg.json): the one TRG builder in
# events/sec on the paper-scale vortex training trace.
TRG_BENCHES = ^(BenchmarkTRGBuildSerial)$$

# Sampled evaluation (BENCH_sample.json): the exact-vs-sampled per-layout
# replay pair on the scale-1.0 trace (the ≥10× speedup headline) and plan
# construction.
SAMPLE_BENCHES = ^(BenchmarkSamplePlan|BenchmarkExactMissRate|BenchmarkSampledMissRate)$$

bench-json:
	$(GO) test -run '^$$' -bench '$(GBSC_BENCHES)' -benchmem -count 5 \
		-benchtime=$(BENCHTIME) . ./internal/core/ ./internal/optimal/ | $(GO) run ./cmd/benchjson > BENCH_gbsc.json
	$(GO) test -run '^$$' -bench '$(TRG_BENCHES)' -benchmem -count 5 \
		-benchtime=$(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_trg.json
	$(GO) test -run '^$$' -bench '$(SAMPLE_BENCHES)' -benchmem -count 5 \
		-benchtime=$(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_sample.json

# Regenerate the full paper evaluation golden (experiments_output.txt, the
# EXPERIMENTS.md numbers). CI re-runs it and fails on any diff.
experiments:
	$(GO) run ./cmd/experiments -run all -scale 1.0 -runs 40 -seed 1 > experiments_output.txt

# Regenerate the small-scale golden CI checks against (ci_smoke_output.txt).
# CI re-runs this and fails on any diff, so commit the refreshed file
# whenever an intentional change moves the numbers.
golden-smoke:
	$(GO) run ./cmd/experiments -run all -scale 0.05 -runs 3 -seed 1 \
		-stats ci-run-report.json > ci_smoke_output.txt
