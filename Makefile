# Build/test/bench entry points. The race target covers the packages with
# concurrency (tensor engine, pipeline, serving engine, HTTP service, and the
# obs metrics/logging layer), the HTTP service twice over; bench regenerates the
# LocMatcher + serving micro-benchmark rows in BENCH_locmatcher.json;
# bench-regress compares eight of those rows with the parent commit's; cover
# enforces a coverage floor; the smoke-* targets each boot a real server and
# check one surface end to end. End-to-end performance numbers come from
# bench/run.sh (BENCHMARK.json), not from a target here.

GO ?= go
COVER_FLOOR ?= 75

.PHONY: build test experiments-smoke examples-smoke fuzz-smoke check-bench race vet cover bench bench-all bench-read bench-regress smoke-metrics smoke-stream smoke-cluster smoke-quality

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# cmd/experiments has no test files: run one quick table so the evaluated
# path (core.NewPipeline -> baselines -> eval) executes in CI, not just builds.
experiments-smoke:
	$(GO) run ./cmd/experiments -quick -exp table2

# No test reaches examples/: run each program (quickstart, casestudies,
# routeplanning and availability call LocMatcher.Predict) and fail on the
# first non-zero exit. About 20 s on two cores.
examples-smoke:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Ten seconds of native fuzzing per target (-fuzz takes one target per run),
# starting from the checked-in corpora under testdata/fuzz and the f.Add
# seeds. Which target holds which parser:
#   FuzzJSONNumber          internal/jsonscan: the number grammar the three
#                           strict readers share (Int, Float) vs json.Unmarshal
#   FuzzAppendFloat         internal/jsonscan: the read routes' exact float
#                           printer vs strconv, taken and declined sides
#   FuzzBatchRequestDecode  the POST /v1/locations:batch body reader, and the
#                           whole route vs the pure encoding/json route
#   FuzzBatchResponseEncode the batch/point response writer vs json.Marshal
#   FuzzStreamLineDecode    the POST /v1/trajectories:stream line reader
#   FuzzFrozenStore         the frozen store's open-addressed table vs a Go
#                           map of the same answers, and its layout vs the
#                           same rows frozen in the opposite order
#   FuzzWALRecordDecode     the WAL record decoder vs its binary encoder (the
#                           0x06 window cut is exactly its one byte) and,
#                           for the JSON batch window, json.Unmarshal; every
#                           other JSON kind is refused
#   FuzzSnapshotDecode      the snapshot reader: whole-engine restores of
#                           version-1 documents and version-2 manifests vs
#                           encoding/json alone; other versions, and a
#                           manifest listing neither 0 nor shard_count
#                           shard documents, are refused
#   FuzzMatMulKernels       internal/nn's matrix-product kernels vs the naive
#                           loops in the reference order, bit for bit
#   FuzzRowOps              internal/nn's row ops (softmax, layer norm, ReLU,
#                           tanh, dropout, both directions) vs their textbook
#                           loops, bit for bit
#   FuzzMergeNear           internal/cluster's window-by-window merge around
#                           the new centroids vs HierarchicalWeighted over
#                           everything alive, bit for bit
#   FuzzPoolBuilder         internal/core's pool builder vs the map-based
#                           builder that re-clusters every alive item at each
#                           seal: the same pool after every random window cut
#   FuzzParseExposition     internal/obs's Prometheus text parser, which a
#                           cluster frontend runs on its peers' /v1/metrics
#   FuzzWALSegment          internal/wal's frame reader: a damaged segment is
#                           refused as ErrCorrupt or replays a clean prefix
#   FuzzTraceparent         internal/obs/trace's W3C traceparent reader: what
#                           it accepts is valid and re-renders to itself
#   FuzzStayPointExtraction internal/traj's one stay-point extractor vs the
#                           Definition-4 reference (noise filter, then the
#                           seek-forward detector), bit for bit
# FuzzSnapshotDecode restores whole engines, whose coverage is never the same
# twice, and FuzzParseExposition starts from a whole server scrape, so
# minimising an input that looks new would otherwise eat the budget: each gets
# a second per input.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test ./internal/jsonscan -run '^$$' -fuzz '^FuzzJSONNumber$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jsonscan -run '^$$' -fuzz '^FuzzAppendFloat$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/deploy -run '^$$' -fuzz '^FuzzBatchRequestDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/deploy -run '^$$' -fuzz '^FuzzBatchResponseEncode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/deploy -run '^$$' -fuzz '^FuzzStreamLineDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/deploy -run '^$$' -fuzz '^FuzzFrozenStore$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzWALRecordDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/nn -run '^$$' -fuzz '^FuzzMatMulKernels$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nn -run '^$$' -fuzz '^FuzzRowOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzMergeNear$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzPoolBuilder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzParseExposition$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALSegment$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/trace -run '^$$' -fuzz '^FuzzTraceparent$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/traj -run '^$$' -fuzz '^FuzzStayPointExtraction$$' -fuzztime $(FUZZTIME)

# The benchmark harness is its own module (bench/go.mod, replace dlinfma =>
# ../), so the root ./... patterns skip it: build, vet, and test it here so
# an engine API change that breaks the harness fails CI (~10 s).
check-bench:
	cd bench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# internal/deploy runs twice in one process (-count=2): its tests read the
# process-wide obs.Default registry, so one that reads a counter absolutely
# instead of by its change across the request fails on the second run.
race:
	$(GO) test -race ./internal/core/... ./internal/nn/... ./internal/engine/... ./internal/shard/... ./internal/cluster/... ./internal/peer/... ./internal/obs/... ./internal/wal/...
	$(GO) test -race -count=2 ./internal/deploy/...

# vet also fails on unformatted code: gofmt -l from the root walks both
# modules (bench/ included). internal/nn's lane kernels are amd64 assembly
# (go vet's asmdecl checks them against their Go declarations); the arm64 vet
# and the 386 build keep the fallback file for other architectures compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/nn
	GOARCH=386 $(GO) build ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "vet: files not gofmt-formatted:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	@# Library code must log through internal/obs, never the stdlib printers:
	@# fmt.Print*/log.Print* bypass levels, formats, and the component fields.
	@bad=$$(grep -rnE '\b(fmt|log)\.Print(f|ln)?\(' internal/ --include='*.go' | grep -v '_test.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "vet: stdlib printing in internal/ (use internal/obs logging):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@# obs.Logger is the one handle on log/slog: a package importing slog
	@# itself could log through slog.Default, past the level, the format and
	@# the component fields.
	@bad=$$(grep -rnE '"log/slog"' --include='*.go' *.go bench cmd examples internal | grep -v '^internal/obs/' || true); \
	if [ -n "$$bad" ]; then \
		echo "vet: log/slog imported outside internal/obs (log through obs.Logger):"; \
		echo "$$bad"; \
		exit 1; \
	fi

# Boot a server and verify the Prometheus exposition parses with every
# required family present.
smoke-metrics:
	bash scripts/metrics_smoke.sh

# Boot a WAL-backed server, stream trajectories, SIGKILL it, restart on the
# same -wal-dir, and verify no acknowledged point was lost.
smoke-stream:
	bash scripts/stream_smoke.sh

# Boot a real two-peer cluster behind a -peers frontend with replication 2,
# SIGKILL one peer, and verify every answer survives byte-identically via
# ring-ordered replica failover.
smoke-cluster:
	bash scripts/cluster_smoke.sh

# Boot a server on the tiny dataset, run two re-inferences, and assert the
# model-quality surface end to end: /v1/debug/swaps churn reports plus the
# churn/confidence/data-quality metric families in /v1/metrics.
smoke-quality:
	bash scripts/quality_smoke.sh

# Aggregate statement coverage with a floor (override: make cover COVER_FLOOR=60).
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { gsub("%","",$$3); printf "total coverage %.1f%% (floor %d%%)\n", $$3, floor; \
		 if ($$3+0 < floor+0) exit 1 }'

# LocMatcher training/inference + serving-throughput + snapshot-restore +
# WAL-replay + pool-seal + in-process batch handler benchmarks, the read
# routes' float printer beside strconv, and internal/nn's kernels at
# LocMatcher's shapes on the Go and the lane path -> BENCH_locmatcher.json,
# a record of one machine's numbers that nothing gates against (bench-regress
# compares two commits on the same machine instead).
# -p 1: the packages' benchmarks must not share the processors.
bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -p 1 -run '^$$' -bench 'FitParallel|PredictBatch|ServeQueries|ServeStreamIngest|RestoreSnapshot|ReplayWAL|PoolSealGrowth|BatchHandler|AppendFloat|Kernels' -benchmem ./internal/jsonscan ./internal/nn . | bin/benchjson -out BENCH_locmatcher.json

# Every benchmark (regenerates all paper artefacts; slow).
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem .

# Serving read-path benchmarks only (frozen-store queries, parallel clients,
# batched scatter/gather) with allocation counts — the quick loop while
# working on the hot path. Does not rewrite BENCH_locmatcher.json.
bench-read:
	$(GO) test -run '^$$' -bench 'ServeQueriesParallel|ServeQueriesBatch' -benchmem .

# Compare this checkout with its parent commit (HEAD~1) on eight
# micro-benchmark rows — single-shard queries/sec of the parallel and batched
# reads, ns/key of the batch handler over a 200k-address store, two-shard
# fixes/sec of the streamed ingest, the process CPU time of a serial training
# epoch, addrs/s of a 200k-address restore, the bytes a pool builder holds
# per alive location after 50 windows, the process CPU time per record of a
# two-shard WAL replay — over ten alternating pairs of runs
# at 1 s benchtime, each side's root test binary built once. Fails when a
# row's median over this checkout's runs is worse than the parent's by more
# than 15%, or a row or a run is missing (microGates in cmd/benchjson); a row
# no parent run reports yet is printed as new and compared from the next
# commit on. About 6 minutes on two cores.
bench-regress:
	bash scripts/pairs.sh HEAD~1 micro 1 10
