# Development and CI entry points. `make ci` is the gate every change must
# pass: formatting, vet + the custom lint suite, build, the full test suite
# under the race detector (the experiment worker pool runs concurrently in
# several tests, so -race is mandatory, not optional), and one iteration of
# every benchmark as a smoke test of the measurement loop.

GO ?= go

.PHONY: ci fmt fmt-check vet lint build test race bench bench-json experiments golden-smoke

ci: fmt-check vet lint build race bench

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
# packages (sampled estimate, static bounds, exhaustive search) free of the
# placement layer, and randcell — shared test cells — out of every non-test
# import list.
PLACEMENT_PKGS = repro/internal/(anneal|baseline|core|split|wcg)
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/repolint -selftest
	$(GO) run ./cmd/repolint
	@deps="$$($(GO) list -deps ./internal/sample ./internal/staticcache ./internal/optimal)" || exit 1; \
	bad="$$(echo "$$deps" | grep -E '^$(PLACEMENT_PKGS)$$')"; \
	if [ -n "$$bad" ]; then echo "sample/staticcache/optimal depend on the placement layer:"; echo "$$bad"; exit 1; fi
	@deps="$$($(GO) list -deps ./internal/staticcache ./internal/optimal)" || exit 1; \
	if echo "$$deps" | grep -qx 'repro/internal/sample'; then \
		echo "staticcache/optimal depend on repro/internal/sample"; exit 1; fi
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

# Machine-readable record of the pipeline hot paths (ns/op, B/op,
# allocs/op): the Section 4.4 merge-loop benchmarks plus the selector/
# scorer micro-benchmarks and the trace-replay engine benchmarks,
# converted to JSON by cmd/benchjson and committed as BENCH_gbsc.json so
# the perf trajectory is tracked per change. Override BENCHTIME (e.g.
# BENCHTIME=1x in CI) to trade precision for speed.
BENCHTIME ?= 1s
GBSC_BENCHES = ^(BenchmarkHeaviestEdge|BenchmarkBestAlignment|BenchmarkBestAlignmentAssoc|BenchmarkMergeNodes|BenchmarkGBSCPlacement|BenchmarkRunTrace|BenchmarkRunTraceClassified|BenchmarkCompileTrace)$$

# TRG ingest throughput (BENCH_trg.json): serial vs sharded build in
# events/sec on the paper-scale vortex trace, plus the sequential
# coordinator scan whose throughput bounds the sharded speedup (Amdahl).
TRG_BENCHES = ^(BenchmarkTRGBuildSerial|BenchmarkTRGBuildSharded8|BenchmarkShardCoordinatorScan)$$

# Sampled evaluation (BENCH_sample.json): the exact-vs-sampled per-layout
# replay pair on the scale-1.0 trace (the ≥10× speedup headline), plan
# construction, and the sampled Figure 5 grid end to end.
SAMPLE_BENCHES = ^(BenchmarkSampledFigure5|BenchmarkSamplePlan|BenchmarkExactMissRate|BenchmarkSampledMissRate)$$

# Static must/may bounds (BENCH_static.json): model construction, the
# per-layout Analyze screening cost vs the exact replay it replaces, and
# the staticbounds experiment grid end to end.
STATIC_BENCHES = ^(BenchmarkStaticModel|BenchmarkStaticAnalyze|BenchmarkStaticExactReplay|BenchmarkStaticBoundsGrid)$$

# Incremental re-placement (BENCH_incr.json): one delta-driven engine
# Update on the drifted paper-scale perl profile vs the from-scratch GBSC
# run it replaces. The acceptance headline is Incremental ≥5× faster than
# Scratch at ≤5% select-weight drift (the fixture reports its drift%).
INCR_BENCHES = ^(BenchmarkIncrementalReplace|BenchmarkScratchReplace)$$

# Layout-batched replay (BENCH_batch.json): the 16-lane batched walk vs
# 16 sequential RunCompiled walks of the same GBSC layout panel (the ≥3×
# layout·events/sec headline), and the batched+abandoning exhaustive
# search vs its frozen serial baseline (the ≥2× wall-time headline).
BATCH_BENCHES = ^(BenchmarkRunCompiledSerial16|BenchmarkRunCompiledBatch16|BenchmarkOptimalSearchSerial|BenchmarkOptimalSearchBatched)$$

bench-json:
	$(GO) test -run '^$$' -bench '$(GBSC_BENCHES)' -benchmem \
		-benchtime=$(BENCHTIME) . ./internal/core/ | $(GO) run ./cmd/benchjson > BENCH_gbsc.json
	$(GO) test -run '^$$' -bench '$(TRG_BENCHES)' -benchmem \
		-benchtime=$(BENCHTIME) . ./internal/trg/ | $(GO) run ./cmd/benchjson > BENCH_trg.json
	$(GO) test -run '^$$' -bench '$(SAMPLE_BENCHES)' -benchmem \
		-benchtime=$(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_sample.json
	$(GO) test -run '^$$' -bench '$(STATIC_BENCHES)' -benchmem \
		-benchtime=$(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_static.json
	$(GO) test -run '^$$' -bench '$(INCR_BENCHES)' -benchmem \
		-benchtime=$(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_incr.json
	$(GO) test -run '^$$' -bench '$(BATCH_BENCHES)' -benchmem \
		-benchtime=$(BENCHTIME) . ./internal/optimal/ | $(GO) run ./cmd/benchjson > BENCH_batch.json

# Regenerate the full paper evaluation (EXPERIMENTS.md numbers).
experiments:
	$(GO) run ./cmd/experiments -run all -scale 1.0 -runs 40

# Regenerate the small-scale golden CI checks against (ci_smoke_output.txt).
# CI re-runs this and fails on any diff, so commit the refreshed file
# whenever an intentional change moves the numbers.
golden-smoke:
	$(GO) run ./cmd/experiments -run all -scale 0.05 -runs 3 -seed 1 \
		-check fatal -stats ci-run-report.json > ci_smoke_output.txt
