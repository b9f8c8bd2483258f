# Developer entry points. `make ci` is the full local gate: vet, build,
# race-enabled tests (including the concurrent-session harness tests), a
# 1-iteration benchmark smoke, and a short fuzz smoke over the PTX parsers.

GO ?= go
FUZZTIME ?= 10s
BENCHDATE := $(shell date +%F)

SMOKEDIR := /tmp/crat-checkpoint-smoke
ORACLEDIR := /tmp/crat-oracle-smoke
GOLDENDIR := /tmp/crat-golden-diff
SVCDIR := /tmp/crat-service-smoke
BACKENDDIR := /tmp/crat-backend-smoke
SHARDDIR := /tmp/crat-shard-smoke
CHAOSDIR := /tmp/crat-chaos-smoke

# Normalization for golden-output comparison: drop the wall-clock footer,
# mask duration tokens (the overhead table's profiling/static wall columns
# are real elapsed time and legitimately vary run to run; everything else in
# the output is deterministic), and squeeze runs of spaces (column padding
# tracks the width of the masked durations).
NORM = sed -E -e '/^done in /d' -e 's/[0-9]+(\.[0-9]+)?(µs|ms|m?s)\b/DUR/g' -e 's/ +/ /g' -e 's/ +$$//'

.PHONY: all build vet test race bench-smoke perf-smoke bench-json checkpoint-smoke fuzz-smoke oracle-smoke pass-smoke backend-smoke service-smoke shard-smoke chaos-smoke golden-diff golden-regen ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -count=1 so cached passes never mask a regression in the concurrency
# tests (the pool.Memo poisoning tests, the parallel experiment engine).
race:
	$(GO) test -race -count=1 ./...

# One iteration of the simulator throughput benchmark: catches crashes or
# gross slowdowns in the hot path without paying for a full bench run.
bench-smoke:
	$(GO) test -run='^$$' -bench=SimulatorThroughput -benchtime=1x .

# Throughput regression gate: a short benchmark run must clear a
# conservative floor (~2x the pre-SoA 1.23M warp-insts/s seed; the SoA
# engine records >4x, so the margin absorbs machine noise without letting a
# hot-loop regression slip through silently).
PERF_FLOOR ?= 2500000
perf-smoke:
	$(GO) test -run='^$$' -bench=SimulatorThroughput -benchtime=1x . | awk ' \
		/warp-insts\/s/ { for (i = 1; i < NF; i++) if ($$(i+1) == "warp-insts/s") v = $$i + 0 } \
		END { \
			if (v == "") { print "perf-smoke: no warp-insts/s metric in benchmark output"; exit 1 } \
			if (v < $(PERF_FLOOR)) { printf "perf-smoke: %d warp-insts/s below the %d floor\n", v, $(PERF_FLOOR); exit 1 } \
			printf "perf-smoke: %d warp-insts/s clears the %d floor\n", v, $(PERF_FLOOR) \
		}'

# Full benchmark suite -> BENCH_<date>.json with the headline metrics
# (geomean speedups, warp-insts/s). Seeds the perf trajectory across PRs.
bench-json:
	$(GO) test -run='^$$' -bench=. -benchtime=1x . | $(GO) run ./cmd/benchjson -o BENCH_$(BENCHDATE).json

# Checkpoint round-trip smoke: run two experiments clean, re-run them with
# -checkpoint and kill the process mid-flight (SIGINT, as a user would), then
# tear the tail off one journal (the torn final record a power cut leaves)
# before the -resume, and require the resumed output byte-identical to the
# clean run with the salvage reported. Guards the whole durability stack end
# to end: signal handling, journal atomicity, torn-tail salvage, manifest
# validation, and deterministic decision rebuild.
checkpoint-smoke:
	rm -rf $(SMOKEDIR) && mkdir -p $(SMOKEDIR)
	$(GO) build -o $(SMOKEDIR)/experiments ./cmd/experiments
	$(SMOKEDIR)/experiments -run fig12,fig8 -j 4 > $(SMOKEDIR)/clean.txt
	-timeout -s INT 6 $(SMOKEDIR)/experiments -run fig12,fig8 -j 4 -checkpoint $(SMOKEDIR)/ck > $(SMOKEDIR)/killed.txt
	JL=$$(ls $(SMOKEDIR)/ck/*/journal.log 2>/dev/null | head -1); \
	[ -n "$$JL" ] || { echo "checkpoint-smoke: no journal written by the killed run"; exit 1; }; \
	truncate -s -7 $$JL; \
	echo "checkpoint-smoke: tore 7 bytes off $$JL"
	$(SMOKEDIR)/experiments -run fig12,fig8 -j 4 -checkpoint $(SMOKEDIR)/ck -resume > $(SMOKEDIR)/resumed.txt
	grep -q '^checkpoint: .* salvaged' $(SMOKEDIR)/resumed.txt
	grep -v '^done in\|^checkpoint:' $(SMOKEDIR)/clean.txt > $(SMOKEDIR)/clean.norm
	grep -v '^done in\|^checkpoint:' $(SMOKEDIR)/resumed.txt > $(SMOKEDIR)/resumed.norm
	diff $(SMOKEDIR)/clean.norm $(SMOKEDIR)/resumed.norm
	@echo "checkpoint-smoke: resumed output byte-identical to the clean run, torn tail salvaged"

# Short fuzz runs of the kernel and module parsers (no-panic + print/parse
# round-trip properties) and of the checkpoint journal decoder (salvage
# invariants hold on arbitrary corruption; clean images round-trip).
# Seeds come from the workload kernels, ptxgen, and crafted journal images.
fuzz-smoke:
	$(GO) test ./internal/ptx/ -run='^$$' -fuzz=FuzzParse$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ptx/ -run='^$$' -fuzz=FuzzParseModule -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/checkpoint/ -run='^$$' -fuzz=FuzzJournalDecode -fuzztime=$(FUZZTIME)

# Differential-oracle smoke: the zero-divergence sweep over every seed
# workload at its full launch grid (the in-tree test run shrinks grids for
# speed), plus a cratc -verify round trip on a generated kernel.
oracle-smoke:
	ORACLE_FULL_GRID=1 $(GO) test ./internal/oracle/ -count=1 -run TestWorkloadsZeroDivergence
	rm -rf $(ORACLEDIR) && mkdir -p $(ORACLEDIR)
	$(GO) build -o $(ORACLEDIR)/cratc ./cmd/cratc
	$(ORACLEDIR)/cratc -in cmd/cratc/testdata/example.ptx -block 64 -grid 2 -verify -out $(ORACLEDIR)/example_out.ptx
	@echo "oracle-smoke: zero divergences"

# Pass-pipeline smoke: the full CRAT pipeline with the PTX verifier enabled
# after every pass on all seed workloads (CRAT and CRAT-local). A pass that
# emits malformed IR fails with the offending pass named.
pass-smoke:
	$(GO) test -count=1 -run TestPassSmoke .

# Backend smoke: every registered optimization backend (and the full
# union) over every seed workload with verify-after-every-pass and zero
# oracle divergence required; the metamorphic sweep that pushes each
# backend through forced tight budgets on the ptxgen corpus; and a golden
# diff of the head-to-head figure against experiments_output.txt.
backend-smoke:
	$(GO) test -count=1 -run TestBackendSmoke .
	$(GO) test ./internal/oracle/ -count=1 -run TestMetamorphicBackends
	rm -rf $(BACKENDDIR) && mkdir -p $(BACKENDDIR)
	$(GO) run ./cmd/experiments -run backends > $(BACKENDDIR)/fresh.txt
	awk '/^== backends:/,/^$$/' experiments_output.txt | $(NORM) > $(BACKENDDIR)/golden.norm
	awk '/^== backends:/,/^$$/' $(BACKENDDIR)/fresh.txt | $(NORM) > $(BACKENDDIR)/fresh.norm
	diff $(BACKENDDIR)/golden.norm $(BACKENDDIR)/fresh.norm
	@echo "backend-smoke: all backends oracle-clean; head-to-head figure matches the golden"

# Service smoke: the cratd daemon's full robustness loop end to end.
# Start cratd on an ephemeral port with a persistent cache, warm it with a
# deterministic corpus, then SIGTERM the daemon while a second load run is
# in flight and require a clean drain (exit 0 + "drained cleanly" in the
# log). Restart on the same cache directory, replay the warm corpus, and
# require /statsz to report zero computes — every answer came from the
# journal — plus one persistent hit per distinct kernel.
service-smoke:
	rm -rf $(SVCDIR) && mkdir -p $(SVCDIR)
	$(GO) build -o $(SVCDIR)/cratd ./cmd/cratd
	$(GO) build -o $(SVCDIR)/cratload ./cmd/cratload
	set -e; \
	$(SVCDIR)/cratd -addr 127.0.0.1:0 -addr-file $(SVCDIR)/addr -cache $(SVCDIR)/cache > $(SVCDIR)/cratd1.log 2>&1 & \
	CRATD_PID=$$!; \
	for i in $$(seq 1 100); do [ -s $(SVCDIR)/addr ] && break; sleep 0.1; done; \
	ADDR=http://$$(cat $(SVCDIR)/addr); \
	$(SVCDIR)/cratload -addr $$ADDR -n 16 -kernels 8 -seed 1 -c 2 -retries 3; \
	$(SVCDIR)/cratload -addr $$ADDR -n 64 -kernels 32 -seed 100 -retries 2 > $(SVCDIR)/load2.txt 2>&1 & \
	LOAD_PID=$$!; \
	sleep 1; \
	kill -TERM $$CRATD_PID; \
	wait $$CRATD_PID; \
	wait $$LOAD_PID || true; \
	grep -q 'drained cleanly; journal flushed' $(SVCDIR)/cratd1.log; \
	$(SVCDIR)/cratd -addr 127.0.0.1:0 -addr-file $(SVCDIR)/addr2 -cache $(SVCDIR)/cache > $(SVCDIR)/cratd2.log 2>&1 & \
	CRATD2_PID=$$!; \
	for i in $$(seq 1 100); do [ -s $(SVCDIR)/addr2 ] && break; sleep 0.1; done; \
	ADDR2=http://$$(cat $(SVCDIR)/addr2); \
	$(SVCDIR)/cratload -addr $$ADDR2 -n 16 -kernels 8 -seed 1 -c 2 -retries 3; \
	curl -s $$ADDR2/statsz > $(SVCDIR)/statsz.json; \
	grep -q '"computes": 0' $(SVCDIR)/statsz.json; \
	grep -q '"persistent_hits": 8' $(SVCDIR)/statsz.json; \
	kill -TERM $$CRATD2_PID; \
	wait $$CRATD2_PID; \
	grep -q 'drained cleanly; journal flushed' $(SVCDIR)/cratd2.log
	@echo "service-smoke: clean drain under load; restart served the corpus with zero recompiles"

# Shard smoke: the multi-replica fleet's chaos acceptance run end to end.
# A single-replica fleet (cratd behind cratgw) produces the baseline
# Decision digests; then a 3-replica fleet runs the same corpus while a
# random replica is SIGKILLed mid-load and restarted on its original
# address. The run must see zero client-visible failures, the gateway's
# failover counter must have advanced, the chaos digests must be
# byte-identical to the baseline regardless of which replica answered,
# and every process (gateway + all replicas) must drain cleanly on stop.
shard-smoke:
	rm -rf $(SHARDDIR) && mkdir -p $(SHARDDIR)
	$(GO) build -o $(SHARDDIR)/cratd ./cmd/cratd
	$(GO) build -o $(SHARDDIR)/cratgw ./cmd/cratgw
	$(GO) build -o $(SHARDDIR)/cratload ./cmd/cratload
	set -e; \
	$(SHARDDIR)/cratload -replicas 1 -cratd-bin $(SHARDDIR)/cratd -cratgw-bin $(SHARDDIR)/cratgw \
		-fleet-dir $(SHARDDIR)/base -n 96 -kernels 24 -seed 7 -c 4 \
		-decisions-out $(SHARDDIR)/base-decisions.txt > $(SHARDDIR)/base.txt 2>&1; \
	$(SHARDDIR)/cratload -replicas 3 -cratd-bin $(SHARDDIR)/cratd -cratgw-bin $(SHARDDIR)/cratgw \
		-fleet-dir $(SHARDDIR)/fleet -n 96 -kernels 24 -seed 7 -c 4 \
		-chaos -chaos-delay 300ms -hedge-after 250ms \
		-decisions-out $(SHARDDIR)/fleet-decisions.txt > $(SHARDDIR)/chaos.txt 2>&1; \
	diff $(SHARDDIR)/base-decisions.txt $(SHARDDIR)/fleet-decisions.txt; \
	grep -q 'CHAOS: SIGKILLed replica' $(SHARDDIR)/chaos.txt; \
	grep -q 'CHAOS: restarted replica' $(SHARDDIR)/chaos.txt; \
	FAILOVERS=$$(awk '/^gateway:/ { for (i = 1; i < NF; i++) if ($$i == "failovers") print $$(i+1) + 0 }' $(SHARDDIR)/chaos.txt); \
	[ -n "$$FAILOVERS" ] && [ "$$FAILOVERS" -ge 1 ] || { echo "shard-smoke: gateway recorded no failovers despite the kill"; cat $(SHARDDIR)/chaos.txt; exit 1; }; \
	for f in cratgw cratd-0 cratd-1 cratd-2; do \
		grep -q 'drained cleanly' $(SHARDDIR)/fleet/$$f.log || { echo "shard-smoke: $$f did not drain cleanly"; exit 1; }; \
	done; \
	grep -q 'drained cleanly' $(SHARDDIR)/base/cratgw.log
	@echo "shard-smoke: chaos kill absorbed with zero client-visible failures; Decisions byte-identical to the single-replica baseline"

# Chaos matrix smoke: every fault kind x lifecycle phase, each cell a
# fresh 2-replica fleet under load with deterministic fault injection
# (internal/faultinject) — SIGKILL, torn journal, ENOSPC, fsync failure,
# connection resets, latency spikes — crossed with during-load,
# during-drain (SIGTERM mid-load), and during-restart. Every cell must
# show zero client-visible failures and Decision digests byte-identical
# to a fault-free baseline; torn-journal cells must report a salvage and
# conn-reset cells at least one failover. See DESIGN.md §16.
chaos-smoke:
	rm -rf $(CHAOSDIR) && mkdir -p $(CHAOSDIR)
	$(GO) build -o $(CHAOSDIR)/cratd ./cmd/cratd
	$(GO) build -o $(CHAOSDIR)/cratgw ./cmd/cratgw
	$(GO) build -o $(CHAOSDIR)/cratload ./cmd/cratload
	$(CHAOSDIR)/cratload -chaos-matrix -fleet-dir $(CHAOSDIR)/run \
		-cratd-bin $(CHAOSDIR)/cratd -cratgw-bin $(CHAOSDIR)/cratgw \
		-n 48 -c 8 -kernels 12 -seed 7
	@echo "chaos-smoke: all fault x phase cells held the zero-visible-failure contract"

# Golden-output regression guard: re-render every experiment table and diff
# against the committed experiments_output.txt (durations normalized, see
# NORM). The full sweep is deterministic — any diff is a real behavior
# change; if it is intentional, refresh the golden with `make golden-regen`.
golden-diff:
	rm -rf $(GOLDENDIR) && mkdir -p $(GOLDENDIR)
	$(GO) run ./cmd/experiments -run all > $(GOLDENDIR)/fresh.txt
	$(NORM) experiments_output.txt > $(GOLDENDIR)/golden.norm
	$(NORM) $(GOLDENDIR)/fresh.txt > $(GOLDENDIR)/fresh.norm
	diff $(GOLDENDIR)/golden.norm $(GOLDENDIR)/fresh.norm
	@echo "golden-diff: experiment output matches experiments_output.txt"

# Refresh the golden after an intentional output change.
golden-regen:
	$(GO) run ./cmd/experiments -run all > experiments_output.txt

ci: vet build race checkpoint-smoke bench-smoke perf-smoke fuzz-smoke oracle-smoke pass-smoke backend-smoke service-smoke shard-smoke chaos-smoke golden-diff
