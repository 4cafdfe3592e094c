GO ?= go

.PHONY: check build vet test race staticcheck fuzz cover bench bench-smoke bench-serve bench-shard serve-smoke shard-smoke chaos-smoke learn-smoke experiments golden

# check is the full CI gate: vet, build, the default test suite (unit +
# determinism + golden, in shuffled order), and the race-detector pass over
# the concurrent packages (the experiment engine, the bench cells it runs,
# the simulator they share, the decision server, the Q-table core whose
# arenas feed its RCU publication, the wire codec, and the chaos proxy).
check: vet build test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools via `go run`, so it needs module
# network access (CI has it; offline dev boxes can skip this target).
STATICCHECK_VERSION ?= 2025.1.1
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# -shuffle=on randomizes test order within each package so hidden
# inter-test state can't survive unnoticed.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/bench/... ./internal/sim/... ./internal/fault/... ./internal/hwpolicy/... ./internal/serve/... ./internal/obs/... ./internal/shard/... ./internal/core/... ./internal/wire/... ./internal/chaos/...

# fuzz runs the fuzz targets for a short smoke window each; raise FUZZTIME
# for a longer campaign.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/hwpolicy -run '^$$' -fuzz FuzzAccelRegisterFile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard -run '^$$' -fuzz FuzzRingRoute -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzBinStream -fuzztime $(FUZZTIME)

# cover enforces the coverage floor (measured at 84.8% when the gate was
# introduced; the floor leaves headroom for timing-dependent paths).
COVER_FLOOR ?= 80.0
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | tail -1
	@$(GO) tool cover -func=coverage.out | tail -1 | \
		awk -v floor=$(COVER_FLOOR) '{gsub(/%/, "", $$NF); if ($$NF+0 < floor) {printf "coverage %.1f%% below floor %.1f%%\n", $$NF, floor; exit 1}}'

# bench measures the hot-path benchmark suite and writes the results as
# machine-readable JSON (the numbers cited in README's Performance table).
BENCH_OUT ?= BENCH_pr3.json
bench:
	$(GO) run ./cmd/pmperf -out $(BENCH_OUT)

# bench-smoke compiles and runs every benchmark exactly once — a fast CI
# guard that the benchmark code itself stays green.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# bench-serve runs the serving experiment: self-host a trained policy on a
# loopback listener, drive it with a simulated device fleet over both the
# HTTP/JSON and binary wire transports (single-period and multi-period bin
# frames), and write throughput + latency quantiles (plus the bin-vs-json
# and batched-vs-bin speedups) to BENCH_pr8.json.
SERVE_OUT ?= BENCH_pr8.json
PERIODS_PER_FRAME ?= 4
bench-serve:
	$(GO) run ./cmd/pmload -proto both -devices 50 -duration 2s -periods-per-frame $(PERIODS_PER_FRAME) -out $(SERVE_OUT)

# serve-smoke is the end-to-end binary check: start pmserve (HTTP + binary
# listeners), load it with pmload over real HTTP and then over the binary
# protocol, scrape /metrics and require populated decide-path histograms on
# both transports, then SIGTERM it and require a clean exit.
serve-smoke:
	$(GO) build -o /tmp/pmserve ./cmd/pmserve
	$(GO) build -o /tmp/pmload ./cmd/pmload
	/tmp/pmserve -addr 127.0.0.1:7421 -listen-bin 127.0.0.1:7422 -quick & \
	SERVE_PID=$$!; \
	/tmp/pmload -addr http://127.0.0.1:7421 -devices 50 -duration 2s || { kill $$SERVE_PID; exit 1; }; \
	/tmp/pmload -addr http://127.0.0.1:7421 -proto bin -bin-addr 127.0.0.1:7422 -devices 50 -duration 2s || { kill $$SERVE_PID; exit 1; }; \
	curl -fsS -o /tmp/metrics.prom http://127.0.0.1:7421/metrics || { kill $$SERVE_PID; exit 1; }; \
	grep -q '# TYPE serve_decide_stage_ns histogram' /tmp/metrics.prom || { kill $$SERVE_PID; exit 1; }; \
	grep -E 'serve_decide_stage_ns_count\{stage="backend"\} [1-9]' /tmp/metrics.prom >/dev/null || { kill $$SERVE_PID; exit 1; }; \
	grep -E 'serve_decide_stage_ns_count\{stage="bin"\} [1-9]' /tmp/metrics.prom >/dev/null || { kill $$SERVE_PID; exit 1; }; \
	kill -TERM $$SERVE_PID; \
	wait $$SERVE_PID

# chaos-smoke replays seeded fault schedules (drops, partial writes,
# latency spikes) against a live server under the race detector, including
# a mid-run crash restart and a graceful drain restart, and fails unless
# every decision is acked exactly once and byte-identical to a fault-free
# oracle. The assertions live in pmload -chaos / serve.RunChaos.
chaos-smoke:
	$(GO) run -race ./cmd/pmload -chaos -proto bin -devices 6 -periods 80 -restart crash
	$(GO) run -race ./cmd/pmload -chaos -proto json -devices 4 -periods 60 -restart drain
	$(GO) run -race ./cmd/pmload -shard-chaos -proto bin -kill -shards 3 -devices 8 -periods 90 -shard-faults
	$(GO) run -race ./cmd/pmload -shard-chaos -proto json -shards 2 -devices 6 -periods 60

# learn-smoke runs the training-while-serving harness under the race
# detector: a seeded fleet split into learning and frozen-control arms
# against an online-learning server, run twice. pmload -learn exits
# non-zero unless updates were applied losslessly, both runs produced
# identical decision traces and bit-identical learned checkpoints, and the
# learned checkpoint reloads into a servable model.
learn-smoke:
	$(GO) run -race ./cmd/pmload -learn -devices 8 -periods 120

# shard-smoke is the sharded end-to-end binary check: two pmserve shards,
# a pmrouter fronting them on HTTP + binary, pmload driving the fleet
# through the router on both transports, then a scrape of the router's
# merged /metrics requiring a nonzero decide count on EVERY shard and
# forwarded decide windows, and one fetch of the router's -pprof index.
shard-smoke:
	$(GO) build -o /tmp/pmserve ./cmd/pmserve
	$(GO) build -o /tmp/pmrouter ./cmd/pmrouter
	$(GO) build -o /tmp/pmload ./cmd/pmload
	/tmp/pmserve -addr 127.0.0.1:7441 -listen-bin 127.0.0.1:7442 -quick -epoch 1 & \
	S0=$$!; \
	/tmp/pmserve -addr 127.0.0.1:7443 -listen-bin 127.0.0.1:7444 -quick -epoch 2 & \
	S1=$$!; \
	/tmp/pmrouter -addr 127.0.0.1:7440 -listen-bin 127.0.0.1:7439 -ring-seed 1 -wait-shards 60s -pprof 127.0.0.1:7438 \
		-shard s0=127.0.0.1:7442@127.0.0.1:7441 -shard s1=127.0.0.1:7444@127.0.0.1:7443 & \
	R=$$!; \
	stop='kill $$R $$S0 $$S1 2>/dev/null'; \
	/tmp/pmload -addr http://127.0.0.1:7440 -devices 50 -duration 2s || { eval $$stop; exit 1; }; \
	/tmp/pmload -addr http://127.0.0.1:7440 -proto bin -bin-addr 127.0.0.1:7439 -devices 50 -duration 2s || { eval $$stop; exit 1; }; \
	curl -fsS -o /tmp/router_metrics.prom http://127.0.0.1:7440/metrics || { eval $$stop; exit 1; }; \
	grep -E 'router_shard_decisions_total\{shard="s0"\} [1-9]' /tmp/router_metrics.prom >/dev/null || { eval $$stop; exit 1; }; \
	grep -E 'router_shard_decisions_total\{shard="s1"\} [1-9]' /tmp/router_metrics.prom >/dev/null || { eval $$stop; exit 1; }; \
	grep -E '^serve_decisions_total [1-9]' /tmp/router_metrics.prom >/dev/null || { eval $$stop; exit 1; }; \
	grep -E '^router_decide_windows_total [1-9]' /tmp/router_metrics.prom >/dev/null || { eval $$stop; exit 1; }; \
	curl -fsS -o /dev/null http://127.0.0.1:7438/debug/pprof/ || { eval $$stop; exit 1; }; \
	kill -TERM $$R; wait $$R; \
	kill -TERM $$S0 $$S1; wait $$S0 $$S1

# bench-shard records the N-shard scaling curve: per shard count it
# self-hosts a checkpoint-hydrated fleet plus a router, drives 100k+
# simulated devices shard-direct by ring placement (bounded workers), and
# stores throughput, latency quantiles, and the router's merged fleet
# metrics in BENCH_pr9.json.
SHARD_OUT ?= BENCH_pr9.json
SHARD_CURVE ?= 1,2,4
bench-shard:
	$(GO) run ./cmd/pmload -shard-curve $(SHARD_CURVE) -devices 100000 -workers 64 -duration 10s -out $(SHARD_OUT)

# experiments regenerates the full evaluation through the testing harness.
experiments:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# golden re-blesses testdata/*.golden after an intentional model change.
golden:
	$(GO) test ./internal/bench -run TestGoldenOutput -update
