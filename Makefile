# Development targets. `make check` is the gate a change must pass before
# it ships: build, vet, the full test suite (which includes the step ledger,
# internal/experiments TestStepLedger), and the race detector over the whole
# tree.

GO ?= go

.PHONY: check build vet test race bench-json serve-smoke soak-smoke cluster-smoke clean

check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every package, not a hand-kept list: goroutines reach well beyond the
# lock-free stores (the daemon, router, obs sinks and soak harness all share
# memory), and a list drifts as packages grow new concurrency.
race:
	$(GO) test -race ./...

# Regenerate the committed paper-figure bench report (BENCH_runs.json,
# one parcfl-bench/v1 report, overwritten).
bench-json:
	$(GO) run ./cmd/experiments -exp bench -json -scale 0.01 -threads 8

# End-to-end daemon smoke: boot parcfld, query it cold, snapshot, restart
# warm, assert identical results and live parcfl_server_* metrics. Pass
# SMOKE_WORK=dir to keep the workdir (CI does, to upload failure bundles).
serve-smoke:
	bash scripts/serve_smoke.sh $(SMOKE_WORK)

# Load-and-observability smoke: soak a warm-started traced daemon with
# parcflload, assert a clean parcfl-soak/v1 report, nonzero parcfl_slo_*
# gauges, a request lane in the shutdown trace matching its timings, and an
# injected-overload phase that fires and validates a diagnostic bundle.
soak-smoke:
	bash scripts/soak_smoke.sh $(SMOKE_WORK)

# Cluster smoke: partition the program into 2 shards, boot both replicas
# behind a parcflrouter, assert routed results byte-identical to an
# unsharded daemon, then kill a shard and assert graceful degradation
# (503 + Retry-After all-or-nothing, partial results with allow_partial).
cluster-smoke:
	bash scripts/cluster_smoke.sh $(SMOKE_WORK)

clean:
	$(GO) clean ./...
