// Command pmload drives a fleet of simulated devices against a pmserve
// instance and reports decision throughput and latency quantiles.
//
// Two modes:
//
//   - -addr http://host:port targets a running pmserve (the CI smoke job);
//     add -proto bin -bin-addr host:port to drive its binary listener;
//   - without -addr it self-hosts: trains a policy, serves it on a loopback
//     listener, and load-tests its own server — the one-command form of the
//     `serve` experiment that produces BENCH_pr6.json.
//
// -proto selects the decision transport: json (HTTP), bin (the
// internal/wire binary protocol), or both — which runs the same fleet over
// each transport in turn and reports speedup_bin_vs_json.
//
// -periods-per-frame K (bin only, K > 1) adds a batched bin run where each
// decide frame carries K control periods' observations and returns K level
// vectors; the report then also carries speedup_batched_vs_bin.
//
// Usage:
//
//	pmload -devices 50 -duration 2s -proto both -periods-per-frame 4 -out BENCH_pr8.json
//	pmload -addr http://127.0.0.1:7421 -devices 1000 -duration 5s
//	pmload -addr http://127.0.0.1:7421 -proto bin -bin-addr 127.0.0.1:7422
//
// Exit status is non-zero when any device observed an error or when no
// decisions were served — the acceptance gate the smoke job relies on.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rlpm/internal/bench"
	"rlpm/internal/chaos"
	"rlpm/internal/core"
	"rlpm/internal/serve"
	"rlpm/internal/shard"
)

// report is the BENCH_pr6.json document.
type report struct {
	GeneratedAt string              `json:"generated_at"`
	Mode        string              `json:"mode"`
	Scenario    string              `json:"scenario"`
	Runs        []bench.ServeResult `json:"runs"`
	// SpeedupBinVsJSON is bin decisions/sec over json decisions/sec when
	// the run set contains one of each on the same backend; omitted
	// otherwise. Only single-period bin runs enter this ratio.
	SpeedupBinVsJSON float64 `json:"speedup_bin_vs_json,omitempty"`
	// SpeedupBatchedVsBin is multi-period-bin decisions/sec over
	// single-period-bin decisions/sec when the run set contains both on
	// the same backend; omitted otherwise.
	SpeedupBatchedVsBin float64 `json:"speedup_batched_vs_bin,omitempty"`
}

func main() {
	var (
		addr     = flag.String("addr", "", "target server URL; empty self-hosts a freshly trained server")
		binAddr  = flag.String("bin-addr", "", "remote mode: the server's binary listener (host:port), required with -proto bin")
		proto    = flag.String("proto", "json", "decision transport: json, bin, or both (self-hosted only)")
		devices  = flag.Int("devices", 50, "simulated device count")
		duration = flag.Duration("duration", 2*time.Second, "load window")
		scenario = flag.String("scenario", "gaming", "workload scenario each device runs")
		seed     = flag.Uint64("seed", 1, "base seed for per-device workload/exploration streams")
		epsilon  = flag.Float64("epsilon", 0, "per-session exploration rate")
		backends = flag.String("backends", "sw", "self-hosted mode: 'sw', 'hw', or 'both'")
		ppf      = flag.Int("periods-per-frame", 1, "bundle this many control periods per bin decide frame; >1 adds a batched bin run next to the single-period one")
		out      = flag.String("out", "", "write the JSON report here (e.g. BENCH_pr6.json)")
		quick    = flag.Bool("quick", true, "self-hosted mode: quick training")

		workers = flag.Int("workers", 0, "bound the load-generator goroutines; 0 runs one per device (large -devices needs this)")

		shardCurve  = flag.String("shard-curve", "", "comma-separated shard counts (e.g. '1,2,4'): self-host an N-shard fleet + router per count and record the scaling curve")
		shardChaos  = flag.Bool("shard-chaos", false, "run the sharded rebalance harness: N shards behind a router, one seeded remove and one add mid-run, differential oracle")
		shards      = flag.Int("shards", 2, "shard-chaos: initial shard count")
		kill        = flag.Bool("kill", false, "shard-chaos: kill the victim shard abruptly instead of draining it")
		shardFaults = flag.Bool("shard-faults", false, "shard-chaos: also inject the -drop/-partial/-corrupt/-latency fault schedule between devices and router")

		learnMode = flag.Bool("learn", false, "run the seeded training-while-serving harness: a frozen-vs-learning device A/B with live Q-updates, then verify determinism and that the learned checkpoint reloads")
		learnTick = flag.Int("learn-tick-every", 0, "learn mode: drain the learner every this many fleet rounds (0 = default)")

		chaosMode = flag.Bool("chaos", false, "run the chaos harness instead of a load test: inject faults, optionally restart the server mid-run, and verify zero lost/duplicated/changed decisions")
		periods   = flag.Int("periods", 200, "chaos mode: decisions per device")
		restart   = flag.String("restart", "", "chaos mode: kill the server mid-run: 'crash' (abrupt) or 'drain' (graceful + checkpoint); empty never")
		dropRate  = flag.Float64("drop", 0.02, "chaos mode: per-event connection-drop probability")
		partRate  = flag.Float64("partial", 0.05, "chaos mode: per-write partial-write probability")
		corrRate  = flag.Float64("corrupt", 0, "chaos mode: per-write frame-corruption probability")
		latRate   = flag.Float64("latency", 0.05, "chaos mode: per-write latency-spike probability")
		latFor    = flag.Duration("latency-for", 2*time.Millisecond, "chaos mode: latency-spike duration")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// faults is the -drop/-partial/-corrupt/-latency schedule.
	faults := chaos.Config{
		Seed:             *seed,
		DropRate:         *dropRate,
		PartialWriteRate: *partRate,
		CorruptRate:      *corrRate,
		LatencyRate:      *latRate,
		LatencyFor:       *latFor,
	}
	if *learnMode {
		os.Exit(runLearnMode(*devices, *periods, *scenario, *seed, *epsilon, *learnTick, *quick, *out))
	}
	if *chaosMode {
		os.Exit(runChaosMode(ctx, *proto, *devices, *periods, *scenario, *seed, *epsilon, *restart, *quick, *out, faults))
	}
	if *shardChaos {
		if !*shardFaults {
			faults = chaos.Config{}
		}
		os.Exit(runShardChaos(ctx, *proto, *shards, *devices, *periods, *scenario, *seed, *epsilon, *kill, *quick, *out, faults))
	}
	if *shardCurve != "" {
		os.Exit(runShardCurve(ctx, *shardCurve, *devices, *workers, *duration, *scenario, *seed, *epsilon, *quick, *out))
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scenario:    *scenario,
	}
	var err error
	if *addr != "" {
		rep.Mode = "remote"
		rep.Runs, err = runRemote(ctx, *addr, *binAddr, *proto, *devices, *workers, *duration, *scenario, *seed, *epsilon, *ppf)
	} else {
		rep.Mode = "self-hosted"
		rep.Runs, err = runSelfHosted(ctx, *backends, *proto, *devices, *duration, *scenario, *seed, *epsilon, *quick, *ppf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		os.Exit(1)
	}
	rep.SpeedupBinVsJSON = speedup(rep.Runs)
	rep.SpeedupBatchedVsBin = speedupBatched(rep.Runs)

	var decisions, errs uint64
	for i := range rep.Runs {
		rep.Runs[i].WriteText(os.Stdout)
		decisions += rep.Runs[i].Report.Decisions
		errs += rep.Runs[i].Report.Errors
	}
	if rep.SpeedupBinVsJSON > 0 {
		fmt.Printf("speedup bin vs json: %.2fx\n", rep.SpeedupBinVsJSON)
	}
	if rep.SpeedupBatchedVsBin > 0 {
		fmt.Printf("speedup batched bin (%d periods/frame) vs bin: %.2fx\n", *ppf, rep.SpeedupBatchedVsBin)
	}
	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		os.Exit(1)
	}
	if decisions == 0 {
		fmt.Fprintln(os.Stderr, "pmload: no decisions served")
		os.Exit(1)
	}
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "pmload: %d device errors\n", errs)
		os.Exit(1)
	}
}

// runLearnMode trains a quick model and hands it to the seeded
// training-while-serving harness: half the fleet learns (decisions follow
// the live tables, rewards feed Q-updates), half is frozen on the
// construction-time model as the control arm. The run is executed twice
// with the same seed, and the smoke gates are: updates were applied, no
// samples were dropped or rejected, both runs produced identical decision
// traces and bit-identical learned checkpoints, and the learned checkpoint
// loads back as a serving model.
func runLearnMode(devices, periods int, scenario string, seed uint64, epsilon float64, tickEvery int, quick bool, out string) int {
	model, err := trainModel(scenario, seed, quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		return 1
	}
	if epsilon == 0 {
		epsilon = 0.2 // off-greedy samples are what the learner feeds on
	}
	cfg := serve.LearnLoadConfig{
		Devices:   devices,
		Periods:   periods,
		Scenario:  scenario,
		Seed:      seed,
		Epsilon:   epsilon,
		TickEvery: tickEvery,
	}
	rep, err := serve.RunLearn(model, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		return 1
	}
	rep2, err := serve.RunLearn(model, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmload: replay run:", err)
		return 1
	}

	fmt.Printf("learn: devices=%d periods=%d updates=%d swaps=%d policy_version=%d dropped=%d rejected=%d\n",
		rep.Devices, rep.Periods, rep.Updates, rep.Swaps, rep.PolicyVersion, rep.Dropped, rep.Rejected)
	for _, arm := range []struct {
		name string
		a    serve.LearnArm
	}{{"learning", rep.Learning}, {"frozen", rep.Frozen}} {
		fmt.Printf("learn: arm=%-8s devices=%d rewards=%d mean_reward=%.4f energy=%.4fJ mean_qos=%.4f\n",
			arm.name, arm.a.Devices, arm.a.Rewards, arm.a.MeanReward, arm.a.EnergyJ, arm.a.MeanQoS)
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "pmload: learn invariant violated: "+format+"\n", args...)
		return 1
	}
	if rep.Updates == 0 {
		return fail("no Q-updates applied")
	}
	if rep.Dropped > 0 || rep.Rejected > 0 {
		return fail("%d samples dropped, %d rejected", rep.Dropped, rep.Rejected)
	}
	if !bytes.Equal(rep.Checkpoint, rep2.Checkpoint) {
		return fail("seeded replay produced different learned tables")
	}
	for i := range rep.Traces {
		if !slices.Equal(rep.Traces[i], rep2.Traces[i]) {
			return fail("seeded replay diverged on device %d's decisions", i)
		}
	}
	dir, err := os.MkdirTemp("", "pmload-learn-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "learned.ckpt")
	if err := os.WriteFile(ckpt, rep.Checkpoint, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		return 1
	}
	if _, err := serve.LoadModel(ckpt, core.DefaultConfig()); err != nil {
		return fail("learned checkpoint does not reload: %v", err)
	}

	if err := writeJSON(out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		return 1
	}
	fmt.Println("learn: all invariants held (replay deterministic, checkpoint reloads)")
	return 0
}

// runChaosMode trains a quick model and hands it to the chaos harness.
// Exit status is non-zero when any resilience invariant is violated —
// a lost, duplicated, or changed decision, a leaked goroutine, or an
// unreadable drain checkpoint.
func runChaosMode(ctx context.Context, proto string, devices, periods int, scenario string, seed uint64, epsilon float64, restart string, quick bool, out string, faults chaos.Config) int {
	model, err := trainModel(scenario, seed, quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		return 1
	}
	// Chaos decisions must match the fault-free oracle with meaningful
	// exploration in the loop; default it on unless the user chose.
	if epsilon == 0 {
		epsilon = 0.2
	}
	cfg := serve.ChaosConfig{
		Proto:    proto,
		Devices:  devices,
		Periods:  periods,
		Seed:     seed,
		Scenario: scenario,
		Epsilon:  epsilon,
		Faults:   faults,
		Restart:  restart,
	}
	if restart == "drain" {
		dir, err := os.MkdirTemp("", "pmload-chaos-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmload:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointPath = filepath.Join(dir, "drain.ckpt")
	}
	rep, cerr := serve.RunChaos(ctx, model, cfg)
	if rep != nil {
		fmt.Printf("chaos: proto=%s devices=%d periods=%d decisions=%d retries=%d resumes=%d restarts=%d mismatches=%d in %.2fs\n",
			rep.Proto, rep.Devices, rep.Periods, rep.Decisions, rep.Retries, rep.Resumes, rep.Restarts, rep.Mismatches, rep.DurationS)
		fmt.Printf("chaos: proxy conns=%d drops=%d stalls=%d partials=%d corrupts=%d delays=%d\n",
			rep.ProxyConns, rep.ProxyDrops, rep.ProxyStalls, rep.ProxyPartials, rep.ProxyCorrupts, rep.ProxyDelays)
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "pmload:", err)
			return 1
		}
	}
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "pmload: chaos invariant violated:", cerr)
		return 1
	}
	fmt.Println("chaos: all invariants held")
	return 0
}

// runShardChaos trains a quick model and hands it to the sharded rebalance
// harness: N checkpoint-hydrated shards behind a router, one seeded shard
// remove (graceful or -kill) and one add mid-run, and a single-process
// differential oracle. Exit status is non-zero when any invariant is
// violated — a lost, duplicated, or changed decision, an unmoved fleet, or
// a leaked goroutine.
func runShardChaos(ctx context.Context, proto string, shards, devices, periods int, scenario string, seed uint64, epsilon float64, kill, quick bool, out string, faults chaos.Config) int {
	model, err := trainModel(scenario, seed, quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		return 1
	}
	if epsilon == 0 {
		epsilon = 0.2 // stateful decisions, so any handoff bug diverges
	}
	rep, rerr := shard.RunRebalance(ctx, model, shard.RebalanceConfig{
		Proto:     proto,
		Shards:    shards,
		Devices:   devices,
		Periods:   periods,
		Seed:      seed,
		Scenario:  scenario,
		Epsilon:   epsilon,
		Rebalance: true,
		Kill:      kill,
		Faults:    faults,
	})
	if rep != nil {
		fmt.Printf("shard-chaos: proto=%s shards=%d devices=%d periods=%d decisions=%d moved=%d resumes=%d removed=%s added=%s mismatches=%d in %.2fs\n",
			rep.Proto, rep.Shards, rep.Devices, rep.Periods, rep.Decisions, rep.Moved, rep.Resumes, rep.Removed, rep.Added, rep.Mismatches, rep.DurationS)
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "pmload:", err)
			return 1
		}
	}
	if rerr != nil {
		fmt.Fprintln(os.Stderr, "pmload: shard invariant violated:", rerr)
		return 1
	}
	fmt.Println("shard-chaos: all invariants held")
	return 0
}

// shardCurveReport is the BENCH_pr9.json document.
type shardCurveReport struct {
	GeneratedAt string `json:"generated_at"`
	Scenario    string `json:"scenario"`
	*shard.ScaleResult
}

// runShardCurve measures decide throughput at each requested shard count:
// per point it self-hosts an N-shard checkpoint-hydrated fleet plus a
// router, drives the device fleet shard-direct by ring placement, and
// scrapes the router's merged fleet metrics.
func runShardCurve(ctx context.Context, curve string, devices, workers int, duration time.Duration, scenario string, seed uint64, epsilon float64, quick bool, out string) int {
	var counts []int
	for _, f := range strings.Split(curve, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "pmload: bad -shard-curve entry %q\n", f)
			return 1
		}
		counts = append(counts, n)
	}
	model, err := trainModel(scenario, seed, quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmload:", err)
		return 1
	}
	res, serr := shard.RunScale(ctx, model, shard.ScaleConfig{
		ShardCounts: counts,
		Devices:     devices,
		Workers:     workers,
		Duration:    duration,
		Scenario:    scenario,
		Seed:        seed,
		Epsilon:     epsilon,
	})
	for _, pt := range res.Points {
		fleetDecisions := uint64(0)
		if pt.Fleet != nil {
			fleetDecisions = pt.Fleet.Decisions
		}
		fmt.Printf("shards=%d decisions=%d rate=%.0f/s p50=%.3fms p99=%.3fms fleet_decisions=%d\n",
			pt.Shards, pt.Report.Decisions, pt.Report.DecisionsPerSec,
			pt.Report.LatencyNs.P50/1e6, pt.Report.LatencyNs.P99/1e6, fleetDecisions)
	}
	if len(res.Points) > 0 {
		rep := shardCurveReport{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Scenario:    scenario,
			ScaleResult: res,
		}
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "pmload:", err)
			return 1
		}
	}
	if serr != nil {
		fmt.Fprintln(os.Stderr, "pmload:", serr)
		return 1
	}
	for _, pt := range res.Points {
		if pt.Report.Errors > 0 || pt.Report.Decisions == 0 {
			fmt.Fprintf(os.Stderr, "pmload: shards=%d saw %d errors, %d decisions\n", pt.Shards, pt.Report.Errors, pt.Report.Decisions)
			return 1
		}
	}
	return 0
}

// trainModel trains the serving model a self-contained mode hands to its
// harness.
func trainModel(scenario string, seed uint64, quick bool) (*serve.Model, error) {
	opt := bench.DefaultOptions()
	opt.Quick = quick
	opt.Seed = seed
	model, _, err := bench.TrainedServeModel(bench.ServeOptions{Options: opt, Scenario: scenario})
	return model, err
}

// writeJSON writes v as indented JSON to out and says so; an empty out
// writes nothing.
func writeJSON(out string, v any) error {
	if out == "" {
		return nil
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(raw, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// speedup returns bin-over-json decisions/sec when the run set holds one
// json and one single-period bin run against the same backend; 0
// otherwise. Multi-period bin runs are excluded so the ratio compares the
// transports at identical framing; speedupBatched covers the framing gain.
func speedup(runs []bench.ServeResult) float64 {
	byProto := map[string]*bench.ServeResult{}
	for i := range runs {
		r := &runs[i]
		if r.PeriodsPerFrame > 1 {
			continue
		}
		if prev, ok := byProto[r.Proto]; ok && prev.Backend != r.Backend {
			return 0 // mixed backends: no single meaningful ratio
		}
		byProto[r.Proto] = r
	}
	j, b := byProto["json"], byProto["bin"]
	if j == nil || b == nil || j.Backend != b.Backend || j.Report.DecisionsPerSec == 0 {
		return 0
	}
	return b.Report.DecisionsPerSec / j.Report.DecisionsPerSec
}

// speedupBatched returns multi-period-bin over single-period-bin
// decisions/sec when the run set holds one of each against the same
// backend; 0 otherwise.
func speedupBatched(runs []bench.ServeResult) float64 {
	var single, batched *bench.ServeResult
	for i := range runs {
		r := &runs[i]
		if r.Proto != "bin" {
			continue
		}
		if r.PeriodsPerFrame > 1 {
			if batched != nil {
				return 0
			}
			batched = r
		} else {
			if single != nil {
				return 0
			}
			single = r
		}
	}
	if single == nil || batched == nil || single.Backend != batched.Backend || single.Report.DecisionsPerSec == 0 {
		return 0
	}
	return batched.Report.DecisionsPerSec / single.Report.DecisionsPerSec
}

// protoList expands -proto into the transports to run.
func protoList(proto string) ([]string, error) {
	switch proto {
	case "", "json":
		return []string{"json"}, nil
	case "bin":
		return []string{"bin"}, nil
	case "both":
		return []string{"json", "bin"}, nil
	default:
		return nil, fmt.Errorf("unknown -proto %q (want json, bin, or both)", proto)
	}
}

// runRemote load-tests an already-running server. A bin transport with
// ppf > 1 is measured twice — single-period first, then batched — so the
// report carries the framing speedup alongside the raw transport numbers.
func runRemote(ctx context.Context, addr, binAddr, proto string, devices, workers int, duration time.Duration, scenario string, seed uint64, epsilon float64, ppf int) ([]bench.ServeResult, error) {
	protos, err := protoList(proto)
	if err != nil {
		return nil, err
	}
	var runs []bench.ServeResult
	for _, p := range protos {
		periods := []int{1}
		if p == "bin" && ppf > 1 {
			periods = append(periods, ppf)
		}
		for _, k := range periods {
			lr, err := serve.RunLoad(ctx, serve.LoadConfig{
				BaseURL:         addr,
				Proto:           p,
				BinAddr:         binAddr,
				Devices:         devices,
				Workers:         workers,
				Duration:        duration,
				Scenario:        scenario,
				Seed:            seed,
				Epsilon:         epsilon,
				PeriodsPerFrame: k,
			})
			if err != nil {
				return nil, fmt.Errorf("proto %s periods %d: %w", p, k, err)
			}
			backend := "remote"
			if lr.Server != nil && lr.Server.Backend != "" {
				backend = lr.Server.Backend
			}
			runs = append(runs, bench.ServeResult{Backend: backend, Proto: p, PeriodsPerFrame: lr.PeriodsPerFrame, Report: *lr})
		}
	}
	return runs, nil
}

// runSelfHosted trains, serves, and load-tests each requested backend ×
// transport in turn — the HW-vs-SW and json-vs-bin A/Bs in one binary.
func runSelfHosted(ctx context.Context, backends, proto string, devices int, duration time.Duration, scenario string, seed uint64, epsilon float64, quick bool, ppf int) ([]bench.ServeResult, error) {
	var list []string
	switch backends {
	case "", "sw":
		list = []string{"sw"}
	case "hw":
		list = []string{"hw"}
	case "both":
		list = []string{"sw", "hw"}
	default:
		return nil, fmt.Errorf("unknown -backends %q (want sw, hw, or both)", backends)
	}
	protos, err := protoList(proto)
	if err != nil {
		return nil, err
	}
	opt := bench.DefaultOptions()
	opt.Quick = quick
	opt.Seed = seed
	var runs []bench.ServeResult
	for _, b := range list {
		for _, p := range protos {
			periods := []int{1}
			if p == "bin" && ppf > 1 {
				// Measure single-period bin first, then the batched framing,
				// so the report carries the framing speedup.
				periods = append(periods, ppf)
			}
			for _, k := range periods {
				r, err := bench.RunServe(ctx, bench.ServeOptions{
					Options:         opt,
					Devices:         devices,
					Duration:        duration,
					Backend:         b,
					Proto:           p,
					Epsilon:         epsilon,
					Scenario:        scenario,
					PeriodsPerFrame: k,
				})
				if err != nil {
					return nil, fmt.Errorf("backend %s proto %s periods %d: %w", b, p, k, err)
				}
				runs = append(runs, *r)
			}
		}
	}
	return runs, nil
}
