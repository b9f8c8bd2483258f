# Developer entry points. `make ci` is the full local gate, 9 targets:
# vet (go vet plus a gofmt check), build, race-enabled tests (including
# the concurrent-session harness tests and the quick cratbench rot guard
# in ./bench), a short fuzz smoke over the PTX parsers, the checkpoint,
# oracle and service smokes, the chaos matrix (the one process-level
# fleet chaos run), and the golden diff. `make bench` runs the benchmark
# (bench/README.md) and `make bench-cold` the cold-compile and ALU-kernel
# microbenchmarks; their timings are advisory, so they stay out of `ci`.

GO ?= go
FUZZTIME ?= 10s

SMOKEDIR := /tmp/crat-checkpoint-smoke
GOLDENDIR := /tmp/crat-golden-diff
SVCDIR := /tmp/crat-service-smoke
CHAOSDIR := /tmp/crat-chaos-smoke
GOLDEN_SIMS := 420

# Normalization for golden-output comparison: drop the wall-clock footer,
# mask duration tokens (the overhead table's profiling/static wall columns
# are real elapsed time and legitimately vary run to run; everything else in
# the output is deterministic), and squeeze runs of spaces (column padding
# tracks the width of the masked durations).
NORM = sed -E -e '/^done in /d' -e 's/[0-9]+(\.[0-9]+)?(µs|ms|m?s)\b/DUR/g' -e 's/ +/ /g' -e 's/ +$$//'

.PHONY: all build vet test race bench bench-cold checkpoint-smoke fuzz-smoke oracle-smoke service-smoke chaos-smoke golden-diff golden-regen ci

all: build

build:
	$(GO) build ./...

# go vet, and fail on any file gofmt would rewrite, if a daemon links the
# load generator, if the compiler's analysis layer (internal/passes)
# links the execution semantics (internal/sem), or if a text front end
# (cmd/cratc, internal/server) imports a compiler stage instead of
# compiling through core.Compile.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt: these files need formatting:"; gofmt -l .; exit 1; }
	@! $(GO) list -deps ./cmd/cratd ./cmd/cratgw | grep -qx crat/internal/loadgen || { echo "vet: cmd/cratd or cmd/cratgw depends on crat/internal/loadgen"; exit 1; }
	@! $(GO) list -deps ./internal/passes | grep -qx crat/internal/sem || { echo "vet: crat/internal/passes depends on crat/internal/sem (instruction decoding belongs in internal/vec)"; exit 1; }
	@! $(GO) list -f '{{join .Imports "\n"}}' ./cmd/cratc ./internal/server | grep -qxE 'crat/internal/(regalloc|spillopt|passes|oracle)' || { echo "vet: cmd/cratc or internal/server imports a compiler stage directly (compile through core.Compile)"; exit 1; }

test:
	$(GO) test ./...

# -count=1 so cached passes never mask a regression in the concurrency
# tests (the pool.Memo poisoning tests, the parallel experiment engine).
# Without -short this includes the full pass and backend smokes
# (TestPassSmoke, TestBackendSmoke: verify-after-every-pass and zero oracle
# divergence on every seed workload) and the metamorphic backend sweep
# (oracle.TestMetamorphicBackends).
race:
	$(GO) test -race -count=1 ./...

# The benchmark: every workload BENCHMARK.json declares, one process each,
# stopping at the first that exits non-zero. See bench/README.md for the
# metrics and how a run is judged.
bench:
	set -e; for w in paper_suite svc_cold svc_warm gw_mixed; do $(GO) run ./bench -workload $$w; done

# Cold-compile microbenchmarks, five samples each with allocation counts:
# one cache-miss compile (svc_cold's and gw_mixed's tail work) at block
# 64, the block size of those workloads' kernels, and at block 128, the
# oracle's check of a set of rewrite chains, the PTX text layer a
# compile starts and ends with (printing one kernel as a module, parsing
# one request body; both over the compile benchmark's kernels), and the
# ALU kernels both engines run, one warp-wide call of each (op, type) the
# benchmark workloads execute, at a full and at a half-warp mask. Feed
# the output to benchstat to compare two commits.
bench-cold:
	$(GO) test ./internal/server -run '^$$' -bench 'CompileCold$$' -benchmem -count 5
	$(GO) test ./internal/oracle -run '^$$' -bench 'CheckChain$$' -benchmem -count 5
	$(GO) test ./internal/ptx -run '^$$' -bench '^(BenchmarkPrint|BenchmarkParseModule)$$' -benchmem -count 5
	$(GO) test ./internal/vec -run '^$$' -bench 'VecKernels$$' -benchtime 200000x -count 5

# Checkpoint round-trip smoke: run two experiments clean, re-run them with
# -checkpoint and interrupt the process mid-flight (SIGINT, as a user would,
# sent once the journal holds a few records), then tear the tail off the
# journal (the torn final record a power cut leaves) before the -resume, and
# require the resumed output byte-identical to the clean run with the
# salvage reported and fewer launches simulated than the clean run. Guards
# the whole durability stack end to end: signal handling, journal
# atomicity, torn-tail salvage, manifest validation, and deterministic
# decision rebuild.
checkpoint-smoke:
	rm -rf $(SMOKEDIR) && mkdir -p $(SMOKEDIR)
	$(GO) build -o $(SMOKEDIR)/experiments ./cmd/experiments
	$(SMOKEDIR)/experiments -run fig12,fig8 -j 4 > $(SMOKEDIR)/clean.txt 2> $(SMOKEDIR)/clean.err
	set -e; \
	JL=$(SMOKEDIR)/ck/fermi/journal.log; \
	$(SMOKEDIR)/experiments -run fig12,fig8 -j 4 -checkpoint $(SMOKEDIR)/ck > $(SMOKEDIR)/killed.txt 2>&1 & \
	PID=$$!; \
	N=0; \
	for i in $$(seq 1 600); do \
		N=$$(grep -ao CRJ2 $$JL 2>/dev/null | wc -l); \
		[ $$N -ge 3 ] && break; \
		sleep 0.05; \
	done; \
	kill -INT $$PID 2>/dev/null || true; \
	wait $$PID || true; \
	grep -q '^interrupted (' $(SMOKEDIR)/killed.txt && ! grep -q '^done in' $(SMOKEDIR)/killed.txt || \
		{ echo "checkpoint-smoke: the -checkpoint run was not interrupted mid-flight"; cat $(SMOKEDIR)/killed.txt; exit 1; }; \
	truncate -s -7 $$JL; \
	echo "checkpoint-smoke: interrupted at $$N journal records; tore 7 bytes off $$JL"
	$(SMOKEDIR)/experiments -run fig12,fig8 -j 4 -checkpoint $(SMOKEDIR)/ck -resume > $(SMOKEDIR)/resumed.txt 2> $(SMOKEDIR)/resumed.err
	grep -q '^checkpoint: .* salvaged' $(SMOKEDIR)/resumed.txt
	CLEAN=$$(sed -n 's/^simulations: \([0-9]*\) run.*/\1/p' $(SMOKEDIR)/clean.err); \
	RESUMED=$$(sed -n 's/^simulations: \([0-9]*\) run.*/\1/p' $(SMOKEDIR)/resumed.err); \
	[ -n "$$CLEAN" ] && [ -n "$$RESUMED" ] && [ $$RESUMED -lt $$CLEAN ] || \
		{ echo "checkpoint-smoke: the resume simulated $$RESUMED launches, the clean run $$CLEAN"; exit 1; }
	grep -v '^done in\|^checkpoint:' $(SMOKEDIR)/clean.txt > $(SMOKEDIR)/clean.norm
	grep -v '^done in\|^checkpoint:' $(SMOKEDIR)/resumed.txt > $(SMOKEDIR)/resumed.norm
	diff $(SMOKEDIR)/clean.norm $(SMOKEDIR)/resumed.norm
	@echo "checkpoint-smoke: resumed output byte-identical to the clean run, torn tail salvaged, fewer launches simulated"

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
# speed). The cratc -verify round trip on a generated kernel is the verify
# row of cmd/cratc's TestGolden, which test and race already run.
oracle-smoke:
	ORACLE_FULL_GRID=1 $(GO) test ./internal/oracle/ -count=1 -run TestWorkloadsZeroDivergence
	@echo "oracle-smoke: zero divergences"

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

# Chaos matrix smoke, the one process-level chaos run: every fault kind
# x lifecycle phase, each cell a fresh 2-replica fleet under load with
# deterministic fault injection (internal/faultinject) — SIGKILL, torn
# journal, ENOSPC, fsync failure, connection resets, latency spikes —
# crossed with during-load (a killed victim stays down until the gateway
# fails over), during-drain (SIGTERM) and during-restart (kill, restart
# at once). The disruption starts once the gateway has completed part of
# the first round, and the corpus repeats in rounds until the victim is
# back in the ring plus one more. Every round must show zero
# client-visible failures and Decision digests byte-identical to a
# fault-free single-replica baseline, and every fleet must drain cleanly;
# a cell also fails if its disruption found no request in flight or no
# round ran after the victim was back. See DESIGN.md §16.
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
# It also pins GOLDEN_SIMS, the distinct launches the sweep simulates
# through the session memos (the overhead table and abl-tpsc's oracle
# sweep simulate directly and are not counted): a launch simulated twice,
# or one the memo wrongly merges, moves it.
golden-diff:
	rm -rf $(GOLDENDIR) && mkdir -p $(GOLDENDIR)
	$(GO) run ./cmd/experiments -run all > $(GOLDENDIR)/fresh.txt 2> $(GOLDENDIR)/fresh.err
	$(NORM) experiments_output.txt > $(GOLDENDIR)/golden.norm
	$(NORM) $(GOLDENDIR)/fresh.txt > $(GOLDENDIR)/fresh.norm
	diff $(GOLDENDIR)/golden.norm $(GOLDENDIR)/fresh.norm
	grep -q '^simulations: $(GOLDEN_SIMS) run,' $(GOLDENDIR)/fresh.err || \
		{ echo "golden-diff: want $(GOLDEN_SIMS) simulations"; cat $(GOLDENDIR)/fresh.err; exit 1; }
	@echo "golden-diff: experiment output matches experiments_output.txt; $(GOLDEN_SIMS) launches simulated"

# Refresh the golden after an intentional output change.
golden-regen:
	$(GO) run ./cmd/experiments -run all > experiments_output.txt

ci: vet build race checkpoint-smoke fuzz-smoke oracle-smoke service-smoke chaos-smoke golden-diff
