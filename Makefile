# PFTK reproduction — common development targets.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json perfbench-smoke chaos-smoke fuzz fuzz-ci experiments examples fmt fmtcheck vet lint scenario-golden calibrate check clean

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
# across runs) and fold the per-metric medians, with each ns/op range,
# into BENCH_sim.json under the "current" label. The committed "pre" label is the seed baseline
# this PR was measured against — do not overwrite it.
#
# The system benchmarks simulate N flows, or a whole simulated hour, per
# iteration, so they get their own (smaller) fixed iteration counts;
# benchjson merges each run into the same "current" label without
# dropping the earlier entries.
BENCH_JSON_PATTERN = BenchmarkSimulatedSecond$$|BenchmarkSimStepObsDisabled$$|BenchmarkSimHold$$|BenchmarkLinkSend$$|BenchmarkTimerReset$$|BenchmarkTraceAppend$$|BenchmarkMarkovSolve$$|BenchmarkSendRateFull$$|BenchmarkSendRateApprox$$|BenchmarkSendRateTDOnly$$|BenchmarkInferLossEvents$$

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

# Short fuzzing passes over every fuzz target.
fuzz:
	$(GO) test ./internal/trace -fuzz FuzzDecode$$ -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzDecodeTcpdump -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzDecodeJSONL -fuzztime 30s
	$(GO) test ./internal/analysis -fuzz FuzzInferLossEvents -fuzztime 30s
	$(GO) test ./internal/scenario -fuzz FuzzParseScenario -fuzztime 30s
	$(GO) test ./internal/serve -fuzz FuzzPredictDecode -fuzztime 30s
	$(GO) test ./internal/serve -fuzz FuzzSimulateDecode -fuzztime 30s
	$(GO) test ./internal/chaos -fuzz FuzzParseSpec -fuzztime 30s

# Abbreviated fuzzing pass for CI: parsers fed attacker-controlled bytes
# (the trace decoders, the scenario JSON parser, which rides inside
# service requests, the /v1/predict and /v1/simulate decoders, and the
# chaos spec codec) get 10 seconds each on every push.
fuzz-ci:
	$(GO) test ./internal/trace -fuzz FuzzDecode$$ -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzDecodeTcpdump -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzDecodeJSONL -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzParseScenario -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzPredictDecode -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzSimulateDecode -fuzztime 10s
	$(GO) test ./internal/chaos -fuzz FuzzParseSpec -fuzztime 10s

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

# Project-specific static analysis: the pftklint suite (seven analyzers
# and the ignore audit) over the whole module. Exit status: 0 clean,
# 1 findings, 2 packages that failed to parse/type-check. go test ./...
# makes the same check (TestLintSelf in internal/lint); a deliberate
# exception is an //pftklint:ignore <analyzer> <justification> directive
# at the finding's site.
lint:
	$(GO) run ./cmd/pftklint ./...

# Serving benchmark smoke test: a short output-checked perfbench
# serve-mixed run, so every predict body and simulate result it serves
# is compared against the program's own code path on each push. The
# last line is the run's JSON result; it must report "correct":true.
# It stays shell: perfbench is a separate module, driven through its own
# run.sh.
perfbench-smoke:
	@out="$$(bash perfbench/run.sh --workload serve-mixed --seconds 2 --trace 1)" || exit 1; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | grep -q '"correct":true'

# Chaos soak: 500 randomized scenario campaigns under the race detector,
# from a fixed (spec, seed), run three times — parallel, serial, and
# parallel again — with every run required to produce the byte-identical
# report and zero invariant violations. -maxwall hard-kills a wedged
# campaign so CI fails instead of hanging. On a failure, rerun with
# -corpus to shrink a minimal repro (see DESIGN.md §11).
#
# It stays shell on purpose: what it checks is the shipped -race binary
# writing the same report file from three separate processes. -maxwall
# stops a wedged campaign by ending its process (a running goroutine
# cannot be stopped), so three campaigns in one process would share one
# box. A pftkchaos mode that ran and compared them itself would add a
# flag whose only caller is this target, and an in-process Go test would
# put 1,500 race-instrumented cases under go test ./... .
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

# Refresh examples/scenarios/outage.golden, which TestOutageGolden
# compares against, after an intentional change.
scenario-golden:
	$(GO) test ./cmd/traceanal -run '^TestOutageGolden$$' -update -count=1

# Refit every known pair's drop process (internal/hosts/fittedtable.go)
# and regenerate the fit report in EXPERIMENTS.md after a change that
# moves the fits; go test ./internal/hosts fails until this is run.
calibrate:
	$(GO) test ./internal/hosts -run '^TestFittedTable$$' -update -count=1

# Umbrella gate: everything CI runs, ending with one iteration of every
# benchmark so a benchmark that fails at runtime fails the gate. The
# module lint runs inside test (TestLintSelf), so lint is not repeated
# here.
check: build vet fmtcheck test race perfbench-smoke chaos-smoke
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

clean:
	rm -rf results chaos-smoke-out .bench_build
