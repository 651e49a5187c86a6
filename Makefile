GO ?= go

.PHONY: check fmt vet staticcheck test build bench bench-compare serve-smoke cluster-smoke cache-smoke provenance-smoke warmstart-smoke fuzz-smoke

# check is the tier-1 verification: formatting, static analysis, and the
# full test suite under the race detector.
check: fmt vet staticcheck test

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck is best-effort locally (the binary may not be installed and
# check must work offline); CI installs it, so there it always runs.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test -race ./...

build:
	$(GO) build ./...

# serve-smoke boots the mosaicd job service and drives one tiny job
# through the HTTP API end to end (submit, poll, result, mask, drain).
serve-smoke:
	./scripts/serve_smoke.sh

# cluster-smoke runs a sharded job on a coordinator with two worker
# processes, SIGKILLs one worker mid-tile, and requires the stitched mask
# to be byte-identical to a local (no-worker) run of the same job.
cluster-smoke:
	./scripts/cluster_smoke.sh

# cache-smoke runs the same repeated-cell sharded job twice against a
# mosaicd with a cache directory: the second run must be served from the
# tile-result cache with a byte-identical mask, and a corrupted on-disk
# entry must be quarantined and recomputed across a daemon restart.
cache-smoke:
	./scripts/cache_smoke.sh

# provenance-smoke runs sharded jobs against a mosaicd with an artifact
# dir: cold and warm runs must anchor identical manifest/Merkle digests,
# and a byte flipped in one stored blob must fail /verify naming the
# leaf across a restart while an untouched artifact verifies clean.
provenance-smoke:
	./scripts/provenance_smoke.sh

# warmstart-smoke drives the warm-start pattern library end-to-end behind
# mosaicd (tile cache off): an empty library must be byte-identical to
# disabled, a translated repeat must be seeded and score no worse, and a
# corrupt entry must be quarantined and recomputed across a restart.
warmstart-smoke:
	./scripts/warmstart_smoke.sh

# fuzz-smoke runs every fuzz target under internal/ (found by grepping for
# func Fuzz*) for FUZZTIME each: the binary-format decoders must reject or
# canonically re-encode hostile input, within an allocation budget
# proportional to its size. Failing inputs land in the package's
# testdata/fuzz/ and replay as regular tests from then on.
FUZZTIME ?= 10s

fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal | sort); do \
		pkg=./$$(dirname $$f); \
		for fn in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "== $$pkg $$fn ($(FUZZTIME))"; \
			$(GO) test -run='^$$' -fuzz="^$$fn\$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

# bench runs the paper-table, convolution-engine and per-layer micro
# benchmarks (forward SOCS imaging, one descent iteration, rasterization)
# and archives both a benchstat-compatible text file and a JSON rendering
# under results/, stamped with today's date. The text file opens with the
# core count, GOMAXPROCS and Go version the run used, which benchjson
# carries into the JSON report header.
BENCH_PATTERN ?= Table2|Table3|Convolve|Smooth|TilePipeline|TileCache|WarmStart|MicroForwardSOCS|MicroIteration|MicroRasterize
BENCH_TIME ?= 1s
BENCH_STAMP := $(shell date +%Y%m%d)

bench:
	@mkdir -p results
	@{ echo "nproc: $$(nproc)"; echo "gomaxprocs: $${GOMAXPROCS:-$$(nproc)}"; \
		echo "goversion: $$($(GO) env GOVERSION)"; } | tee results/BENCH_$(BENCH_STAMP).txt
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchtime='$(BENCH_TIME)' -benchmem -p 1 ./... \
		| tee -a results/BENCH_$(BENCH_STAMP).txt
	$(GO) run ./cmd/benchjson < results/BENCH_$(BENCH_STAMP).txt \
		> results/BENCH_$(BENCH_STAMP).json
	@echo "wrote results/BENCH_$(BENCH_STAMP).txt and .json"

# bench-compare diffs the two most recent archived JSON benchmark reports
# (or OLD=... NEW=... overrides) and fails on a >15% ns/op regression or on
# any rise in a Table 2 benchmark's EPEviol or PVB-nm2.
bench-compare:
	@old="$(OLD)"; new="$(NEW)"; \
	if [ -z "$$old" ] || [ -z "$$new" ]; then \
		set -- $$(ls -1 results/BENCH_*.json 2>/dev/null | sort | tail -2); \
		old=$${old:-$$1}; new=$${new:-$$2}; \
	fi; \
	if [ -z "$$old" ] || [ -z "$$new" ] || [ "$$old" = "$$new" ]; then \
		echo "bench-compare: need two archived reports (or OLD=... NEW=...)"; exit 2; fi; \
	echo "comparing $$old -> $$new"; \
	$(GO) run ./cmd/benchjson -compare "$$old" "$$new"
