# PFTK reproduction — common development targets.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json bench-json-smoke bench-serve-json bench-serve-json-smoke serve-scale-smoke chaos-smoke fuzz fuzz-ci experiments examples fmt fmtcheck vet lint lint-baseline invariants obs-smoke serve-smoke trace-smoke scenario-smoke scenario-golden calibrate check clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Tracked benchmark baseline: run the allocation-sensitive benchmark
# suite at a FIXED iteration count (BenchmarkSimulatedSecond's cost per
# op depends on b.N, so auto-calibrated benchtime is not comparable
# across runs) and fold the per-metric medians into BENCH_sim.json under
# the "current" label. The committed "pre" label is the seed baseline
# this PR was measured against — do not overwrite it.
#
# The system benchmarks simulate N flows, or a whole simulated hour, per
# iteration, so they get their own (smaller) fixed iteration counts;
# benchjson merges each run into the same "current" label without
# dropping the earlier entries.
BENCH_JSON_PATTERN = BenchmarkSimulatedSecond$$|BenchmarkSimStepObsDisabled$$|BenchmarkLinkSend$$|BenchmarkTimerReset$$|BenchmarkTraceAppend$$|BenchmarkMarkovSolve$$
BENCH_JSON_SYSTEM_PATTERN = BenchmarkMultiFlow10$$|BenchmarkMultiFlow100$$|BenchmarkRenoHourTrace$$
BENCH_JSON_REQUIRE = BenchmarkSimulatedSecond,BenchmarkSimStepObsDisabled,BenchmarkLinkSend,BenchmarkTimerReset,BenchmarkTraceAppend,BenchmarkMarkovSolve/Wm8,BenchmarkMarkovSolve/Wm16,BenchmarkMarkovSolve/Wm48,BenchmarkMultiFlow10,BenchmarkMultiFlow100,BenchmarkRenoHourTrace

bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_JSON_PATTERN)' -benchmem \
		-benchtime 100000x -count 5 ./... \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json -label current
	$(GO) test -run '^$$' -bench 'BenchmarkMultiFlow10$$' -benchmem \
		-benchtime 10000x -count 5 . \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json -label current
	$(GO) test -run '^$$' -bench 'BenchmarkMultiFlow100$$' -benchmem \
		-benchtime 1000x -count 5 . \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json -label current
	$(GO) test -run '^$$' -bench 'BenchmarkRenoHourTrace$$' -benchmem \
		-benchtime 20x -count 5 . \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json -label current

# CI smoke: a 10-iteration pass proves the benchmark suite still runs,
# still reports allocations, and still parses into the baseline schema.
# Then the allocation gate: every rung BENCH_sim.json records at
# 0 allocs/op under "current" must still allocate nothing, measured at
# the ledger's own -benchtime (at 10x, amortized arena and trace growth
# still shows as a few allocs/op). BenchmarkMultiFlow100 records 5
# allocs/op, so only its 10-flow sibling needs the second gate run.
bench-json-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_JSON_PATTERN)|$(BENCH_JSON_SYSTEM_PATTERN)' -benchmem \
		-benchtime 10x ./... \
		| $(GO) run ./cmd/benchjson -check -require '$(BENCH_JSON_REQUIRE)'
	$(GO) test -run '^$$' -bench '$(BENCH_JSON_PATTERN)' -benchmem \
		-benchtime 100000x ./... \
		| $(GO) run ./cmd/benchjson -check -baseline BENCH_sim.json
	$(GO) test -run '^$$' -bench 'BenchmarkMultiFlow10$$' -benchmem \
		-benchtime 10000x . \
		| $(GO) run ./cmd/benchjson -check -baseline BENCH_sim.json

# Short fuzzing passes over every fuzz target.
fuzz:
	$(GO) test ./internal/trace -fuzz FuzzDecode$$ -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzDecodeTcpdump -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzDecodeJSONL -fuzztime 30s
	$(GO) test ./internal/analysis -fuzz FuzzInferLossEvents -fuzztime 30s
	$(GO) test ./internal/scenario -fuzz FuzzParseScenario -fuzztime 30s
	$(GO) test ./internal/serve -fuzz FuzzPredictDecode -fuzztime 30s

# Abbreviated fuzzing pass for CI: parsers fed attacker-controlled bytes
# (the trace decoders, the scenario JSON parser, which rides inside
# service requests, and the /v1/predict decoder) get 10 seconds each on
# every push.
fuzz-ci:
	$(GO) test ./internal/trace -fuzz FuzzDecode$$ -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzDecodeTcpdump -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzDecodeJSONL -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzParseScenario -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzPredictDecode -fuzztime 10s

# Regenerate every table and figure at the paper's campaign scale.
experiments:
	$(GO) run ./cmd/experiments -run all -out results/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tcpfriendly
	$(GO) run ./examples/validation
	$(GO) run ./examples/modem
	$(GO) run ./examples/shortflows

fmt:
	gofmt -w .

# Fails (with the offending files listed) if anything is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific static analysis: the full 12-analyzer suite over the
# whole module as JSON, diffed against the committed baseline. Exit
# status: 0 clean, 1 unbaselined findings or stale baseline entries,
# 2 packages that failed to parse/type-check.
lint:
	$(GO) run ./cmd/pftklint -json -check ./...

# Accept the current findings into the committed baseline. Run only when
# a finding is a deliberate, justified exception that an
# //pftklint:ignore directive cannot express better.
lint-baseline:
	$(GO) run ./cmd/pftklint -write-baseline ./...

# The pftkinvariants build turns the invariant layer's checks into
# panics. The full test suite deliberately feeds NaN to the entry points,
# so only the build and the invariant package's own tests run under the
# tag.
invariants:
	$(GO) build -tags pftkinvariants ./...
	$(GO) test -tags pftkinvariants ./internal/invariant

# End-to-end observability smoke test: run an abbreviated campaign with
# live progress and a JSONL metric export, then validate the produced
# manifest.json and metrics against the documented schema with -checkobs.
obs-smoke:
	rm -rf obs-smoke-out
	$(GO) run ./cmd/experiments -run table2 -hour 60 \
		-out obs-smoke-out -metrics obs-smoke-out/metrics.jsonl -progress >/dev/null
	$(GO) run ./cmd/experiments -checkobs obs-smoke-out
	rm -rf obs-smoke-out

# End-to-end serving smoke test: build pftkd and pftkload, boot the
# daemon on an ephemeral port, hit it with a short closed-loop predict
# burst plus a couple of simulate jobs (pftkload exits non-zero when no
# request succeeds), then require a clean SIGTERM drain.
serve-smoke:
	rm -rf serve-smoke-out && mkdir -p serve-smoke-out
	$(GO) build -o serve-smoke-out/pftkd ./cmd/pftkd
	$(GO) build -o serve-smoke-out/pftkload ./cmd/pftkload
	./serve-smoke-out/pftkd -addr 127.0.0.1:0 \
		-addrfile serve-smoke-out/addr >serve-smoke-out/pftkd.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s serve-smoke-out/addr ] && break; sleep 0.1; done; \
	[ -s serve-smoke-out/addr ] || { echo "pftkd never bound"; kill $$pid; exit 1; }; \
	url="http://$$(cat serve-smoke-out/addr)"; \
	./serve-smoke-out/pftkload -url $$url -c 8 -n 500 -batch 4 && \
	./serve-smoke-out/pftkload -url $$url -mode simulate -c 2 -n 4 -simdur 2 && \
	kill -TERM $$pid && wait $$pid && \
	grep -q "drained and stopped" serve-smoke-out/pftkd.log
	rm -rf serve-smoke-out

# End-to-end tracing smoke test: boot pftkd with tracing and an access
# log, push a traced predict burst through pftkload, then require the
# /debug/tracez JSONL export to contain the request root spans, their
# eval children and the load tool's propagated request ids — and the
# access log to carry the same ids with the queue/service split.
trace-smoke:
	rm -rf trace-smoke-out && mkdir -p trace-smoke-out
	$(GO) build -o trace-smoke-out/pftkd ./cmd/pftkd
	$(GO) build -o trace-smoke-out/pftkload ./cmd/pftkload
	./trace-smoke-out/pftkd -addr 127.0.0.1:0 \
		-addrfile trace-smoke-out/addr \
		-accesslog trace-smoke-out/access.log >trace-smoke-out/pftkd.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s trace-smoke-out/addr ] && break; sleep 0.1; done; \
	[ -s trace-smoke-out/addr ] || { echo "pftkd never bound"; kill $$pid; exit 1; }; \
	url="http://$$(cat trace-smoke-out/addr)"; \
	./trace-smoke-out/pftkload -url $$url -c 4 -n 200 && \
	curl -fsS "$$url/debug/tracez" >/dev/null && \
	curl -fsS "$$url/debug/tracez?format=jsonl" >trace-smoke-out/spans.jsonl && \
	grep -q '"name":"POST /v1/predict"' trace-smoke-out/spans.jsonl && \
	grep -q '"name":"eval"' trace-smoke-out/spans.jsonl && \
	grep -q '"key":"request_id","value":"load-' trace-smoke-out/spans.jsonl && \
	grep -q 'request_id=load-' trace-smoke-out/access.log && \
	grep -q 'queue_seconds=' trace-smoke-out/access.log && \
	kill -TERM $$pid && wait $$pid
	rm -rf trace-smoke-out

# Serving throughput trajectory: boot pftkd in its default (traced)
# configuration and drive closed-loop predict bursts at two concurrency
# levels. The c=8 report is folded into BENCH_serve.json under both
# "current" (the moving head the smoke gate compares against) and a
# descriptive trajectory label naming the serving architecture; the c=64
# report records how the same architecture holds up past the worker
# count. Committed historical labels ("mutex-lru", ...) are the
# baselines earlier PRs were measured against — do not overwrite them.
bench-serve-json:
	rm -rf bench-serve-out && mkdir -p bench-serve-out
	$(GO) build -o bench-serve-out/pftkd ./cmd/pftkd
	$(GO) build -o bench-serve-out/pftkload ./cmd/pftkload
	./bench-serve-out/pftkd -addr 127.0.0.1:0 \
		-addrfile bench-serve-out/addr >bench-serve-out/pftkd.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s bench-serve-out/addr ] && break; sleep 0.1; done; \
	[ -s bench-serve-out/addr ] || { echo "pftkd never bound"; kill $$pid; exit 1; }; \
	url="http://$$(cat bench-serve-out/addr)"; \
	./bench-serve-out/pftkload -url $$url -c 8 -n 5000 -json \
		>bench-serve-out/c8.json && \
	./bench-serve-out/pftkload -url $$url -c 64 -n 5000 -json \
		>bench-serve-out/c64.json && \
	$(GO) run ./cmd/benchjson -serve -o BENCH_serve.json \
		-label current <bench-serve-out/c8.json && \
	$(GO) run ./cmd/benchjson -serve -o BENCH_serve.json \
		-label sharded+inline-c8 <bench-serve-out/c8.json && \
	$(GO) run ./cmd/benchjson -serve -o BENCH_serve.json \
		-label sharded+inline-c64 <bench-serve-out/c64.json; \
	status=$$?; kill -TERM $$pid; wait $$pid; \
	rm -rf bench-serve-out; exit $$status

# CI regression gate for the committed serving baseline: drive a short
# predict burst against a live pftkd and require (a) the pftkload -json
# report still parses as healthy traffic with latency quantiles, and
# (b) BENCH_serve.json still parses into the baseline schema with a
# recorded serve entry under the "current" label — so the committed
# numbers stay comparable against what the load pipeline produces.
# -gatefrac 0.2 additionally requires the live run to reach 20% of the
# committed throughput (and stay within 5x the committed p99) for the
# matching mode+concurrency label: generous machine-variance slack that
# still fails on the order-of-magnitude collapse a real serving
# regression causes.
bench-serve-json-smoke:
	rm -rf bench-serve-out && mkdir -p bench-serve-out
	$(GO) build -o bench-serve-out/pftkd ./cmd/pftkd
	$(GO) build -o bench-serve-out/pftkload ./cmd/pftkload
	./bench-serve-out/pftkd -addr 127.0.0.1:0 \
		-addrfile bench-serve-out/addr >bench-serve-out/pftkd.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s bench-serve-out/addr ] && break; sleep 0.1; done; \
	[ -s bench-serve-out/addr ] || { echo "pftkd never bound"; kill $$pid; exit 1; }; \
	url="http://$$(cat bench-serve-out/addr)"; \
	./bench-serve-out/pftkload -url $$url -c 8 -n 500 -json \
		| $(GO) run ./cmd/benchjson -serve -check \
			-baseline BENCH_serve.json -require current -gatefrac 0.2; \
	status=$$?; kill -TERM $$pid; wait $$pid; \
	rm -rf bench-serve-out; exit $$status

# Multi-listener scale smoke: boot pftkd with two accept paths
# (SO_REUSEPORT where the kernel allows it, shard-by-hash fanout
# otherwise) and drive an open-loop Poisson predict burst — the
# discipline that keeps latency honest under overload, measured from
# each request's scheduled send time. pftkload exits non-zero if no
# request succeeds; the grep requires the daemon actually ran in
# multi-listener mode and still drained cleanly.
serve-scale-smoke:
	rm -rf serve-scale-out && mkdir -p serve-scale-out
	$(GO) build -o serve-scale-out/pftkd ./cmd/pftkd
	$(GO) build -o serve-scale-out/pftkload ./cmd/pftkload
	./serve-scale-out/pftkd -addr 127.0.0.1:0 -listeners 2 \
		-addrfile serve-scale-out/addr >serve-scale-out/pftkd.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s serve-scale-out/addr ] && break; sleep 0.1; done; \
	[ -s serve-scale-out/addr ] || { echo "pftkd never bound"; kill $$pid; exit 1; }; \
	url="http://$$(cat serve-scale-out/addr)"; \
	./serve-scale-out/pftkload -url $$url -c 8 -n 1000 -qps 2000 -openloop && \
	kill -TERM $$pid && wait $$pid && \
	grep -q "2 listeners (" serve-scale-out/pftkd.log && \
	grep -q "drained and stopped" serve-scale-out/pftkd.log
	rm -rf serve-scale-out

# Chaos soak: 500 randomized scenario campaigns under the race detector,
# from a fixed (spec, seed), run three times — parallel, serial, and
# parallel again — with every run required to produce the byte-identical
# report and zero invariant violations. -maxwall hard-kills a wedged
# campaign so CI fails instead of hanging. On a failure, rerun with
# -corpus to shrink a minimal repro (see DESIGN.md §11).
chaos-smoke:
	rm -rf chaos-smoke-out && mkdir -p chaos-smoke-out
	$(GO) build -race -o chaos-smoke-out/pftkchaos ./cmd/pftkchaos
	./chaos-smoke-out/pftkchaos -n 500 -seed 1 -j 8 -maxwall 10m \
		-out chaos-smoke-out/j8.json
	./chaos-smoke-out/pftkchaos -n 500 -seed 1 -j 1 -maxwall 10m \
		-out chaos-smoke-out/j1.json
	./chaos-smoke-out/pftkchaos -n 500 -seed 1 -j 8 -maxwall 10m \
		-out chaos-smoke-out/j8b.json
	cmp chaos-smoke-out/j8.json chaos-smoke-out/j1.json
	cmp chaos-smoke-out/j8.json chaos-smoke-out/j8b.json
	rm -rf chaos-smoke-out

# End-to-end scenario smoke test: simulate the bundled outage scenario
# through tracesim, analyze it with traceanal, and diff the per-interval
# report against the checked-in golden output. Any nondeterminism in the
# scenario engine — or an unintended behavior change — shows up as a
# golden diff. Regenerate with: make scenario-golden.
SCENARIO_SMOKE_ARGS = -rtt 0.1 -loss 0.01 -wm 32 -dur 600 -seed 42 \
	-scenario examples/scenarios/outage.json

scenario-smoke:
	rm -rf scenario-smoke-out && mkdir -p scenario-smoke-out
	$(GO) run ./cmd/tracesim $(SCENARIO_SMOKE_ARGS) \
		-o scenario-smoke-out/outage.pftk >/dev/null
	$(GO) run ./cmd/traceanal -interval 100 scenario-smoke-out/outage.pftk \
		> scenario-smoke-out/outage.out
	diff -u examples/scenarios/outage.golden scenario-smoke-out/outage.out
	rm -rf scenario-smoke-out

# Refresh the scenario-smoke golden after an intentional change.
scenario-golden:
	$(GO) run ./cmd/tracesim $(SCENARIO_SMOKE_ARGS) -o /tmp/outage-golden.pftk >/dev/null
	$(GO) run ./cmd/traceanal -interval 100 /tmp/outage-golden.pftk \
		> examples/scenarios/outage.golden
	rm -f /tmp/outage-golden.pftk

# Refit every known pair's drop process (internal/hosts/fittedtable.go)
# and regenerate the fit report in EXPERIMENTS.md after a change that
# moves the fits; go test ./internal/hosts fails until this is run.
calibrate:
	$(GO) test ./internal/hosts -run '^TestFittedTable$$' -update -count=1

# Umbrella gate: everything CI runs.
check: build vet fmtcheck lint test race invariants obs-smoke serve-smoke serve-scale-smoke trace-smoke scenario-smoke chaos-smoke bench-serve-json-smoke

clean:
	rm -rf results obs-smoke-out serve-smoke-out serve-scale-out trace-smoke-out bench-serve-out chaos-smoke-out
