// Rebalance harness: the executable proof of the sharded tier's handoff
// story. RunRebalance drives a fleet of simulated devices through the
// router at an N-shard fleet — optionally through a fault-injecting proxy,
// optionally removing (or killing) a shard and adding a fresh one mid-run
// — and holds the run to the single-process invariants:
//
//   - completeness: every device acks exactly Periods decisions — a
//     handoff may cost a resume round trip, never a decision;
//   - determinism: each device's decision sequence is byte-identical to a
//     fault-free single-process oracle over the same model, so sharding,
//     checkpoint hydration, routing, and handoff changed nothing;
//   - hygiene: goroutines and heap settle back to baseline.
package shard

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"rlpm/internal/chaos"
	"rlpm/internal/serve"
	"rlpm/internal/workload"
)

// RebalanceConfig parameterizes a sharded differential run.
type RebalanceConfig struct {
	// Proto selects the device transport through the router: "bin"
	// (default) or "json".
	Proto string
	// Devices is the concurrent device count (default 12).
	Devices int
	// Periods is the decide count per device (default 200).
	Periods int
	// Seed derives the ring, fault schedule, and per-device streams
	// (default 1).
	Seed uint64
	// Scenario is the workload every device runs (default "gaming").
	Scenario string
	// Epsilon is the per-session exploration rate — non-zero makes
	// decisions stateful, so any handoff bug diverges the sequence.
	Epsilon float64
	// Shards is the initial shard count (default 2).
	Shards int
	// Rebalance, when true, removes the most-loaded shard once a third of
	// the fleet's decisions are acked and adds a fresh shard at two
	// thirds — one seeded remove and one seeded add per run.
	Rebalance bool
	// Kill makes the remove abrupt: the shard dies first (in-flight calls
	// fail), then leaves the ring. False drains gracefully: the ring drops
	// it before it stops.
	Kill bool
	// Faults is an optional fault schedule injected between devices and
	// the router. Its Seed defaults to Seed.
	Faults chaos.Config
}

// Every device posts a reward each rebalanceRewardEvery periods; the
// router gives each forwarded call rebalanceCallTimeout.
const (
	rebalanceRewardEvery = 25
	rebalanceCallTimeout = 2 * time.Second
)

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.Proto == "" {
		c.Proto = "bin"
	}
	if c.Devices == 0 {
		c.Devices = 12
	}
	if c.Periods == 0 {
		c.Periods = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scenario == "" {
		c.Scenario = "gaming"
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	return c
}

// fleet is the device side of the run.
func (c RebalanceConfig) fleet() serve.FleetConfig {
	return serve.FleetConfig{
		Proto: c.Proto, Devices: c.Devices, Periods: c.Periods, Seed: c.Seed,
		Scenario: c.Scenario, Epsilon: c.Epsilon, RewardEvery: rebalanceRewardEvery,
	}
}

// Validate checks the configuration.
func (c RebalanceConfig) Validate() error {
	if c.Proto != "bin" && c.Proto != "json" {
		return fmt.Errorf("shard: unknown rebalance proto %q (want bin or json)", c.Proto)
	}
	if c.Devices < 1 || c.Periods < 1 {
		return fmt.Errorf("shard: rebalance needs at least one device and period, got %d/%d", c.Devices, c.Periods)
	}
	if c.Shards < 1 {
		return fmt.Errorf("shard: rebalance needs at least one shard, got %d", c.Shards)
	}
	if c.Rebalance && c.Shards < 2 {
		return fmt.Errorf("shard: rebalancing needs at least two shards, got %d", c.Shards)
	}
	return nil
}

// RebalanceReport is the evidence a run collects.
type RebalanceReport struct {
	Proto     string  `json:"proto"`
	Shards    int     `json:"shards"`
	Devices   int     `json:"devices"`
	Periods   int     `json:"periods"`
	DurationS float64 `json:"duration_s"`
	Decisions uint64  `json:"decisions"` // acked; must equal Devices×Periods

	Dials   uint64 `json:"dials"`
	Retries uint64 `json:"retries"`
	Resumes uint64 `json:"resumes"` // client-side session resumes (handoffs ridden out)

	Moved         uint64 `json:"moved"`          // router sessions invalidated by membership change
	RouterResumes uint64 `json:"router_resumes"` // resumes the router placed
	ForwardErrors uint64 `json:"forward_errors"`

	Removed string `json:"removed,omitempty"` // victim shard of the rebalance
	Added   string `json:"added,omitempty"`   // shard joined mid-run

	Mismatches int `json:"mismatches"`

	serve.Hygiene
}

// RunRebalance executes one sharded differential run against model.
func RunRebalance(ctx context.Context, model *serve.Model, cfg RebalanceConfig) (*RebalanceReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := workload.ByName(cfg.Scenario); err != nil {
		return nil, err
	}

	rep := &RebalanceReport{
		Proto: cfg.Proto, Shards: cfg.Shards, Devices: cfg.Devices, Periods: cfg.Periods,
		Hygiene: serve.StartHygiene(),
	}
	start := time.Now()
	run, err := runShardedFleet(ctx, model, cfg, rep)
	if err != nil {
		return rep, err
	}
	rep.Decisions = run.Decisions
	rep.DurationS = time.Since(start).Seconds()
	rep.Dials, rep.Retries, rep.Resumes = run.Transport.Dials, run.Transport.Retries, run.Transport.Resumes

	// Fault-free single-process oracle over the same model: the sharded
	// fleet must be byte-identical, device for device.
	if rep.Mismatches, err = serve.OracleMismatches(model, cfg.fleet(), run); err != nil {
		return rep, err
	}
	// The fleet, router, front and proxy are torn down by now, so their
	// goroutines count against the baseline.
	hygieneErr := rep.Hygiene.Settle()

	total := uint64(cfg.Devices) * uint64(cfg.Periods)
	switch {
	case run.StepErr != nil:
		return rep, fmt.Errorf("shard: rebalance controller: %w", run.StepErr)
	case run.DeviceErr() != nil:
		return rep, fmt.Errorf("shard: device failed: %w", run.DeviceErr())
	case rep.Decisions != total:
		return rep, fmt.Errorf("shard: acked %d decisions, want %d (lost or duplicated)", rep.Decisions, total)
	case rep.Mismatches > 0:
		return rep, fmt.Errorf("shard: %d device(s) diverged from the single-process oracle", rep.Mismatches)
	case cfg.Rebalance && rep.Moved == 0:
		return rep, fmt.Errorf("shard: rebalance moved no sessions — the handoff path was not exercised")
	case hygieneErr != nil:
		return rep, fmt.Errorf("shard: %w", hygieneErr)
	}
	return rep, nil
}

// runShardedFleet stands up the shards, the router and its front, and the
// optional fault proxy, drives the device fleet through them — with the
// remove and the add as steps at a third and two thirds of the run — and
// tears it all down before returning. It records the router's handoff
// counters and the rebalance's victim and newcomer in rep.
func runShardedFleet(ctx context.Context, model *serve.Model, cfg RebalanceConfig, rep *RebalanceReport) (*serve.FleetRun, error) {
	// The fleet: N checkpoint-hydrated replicas.
	fleet, err := NewFleet(model, cfg.Shards, serve.Config{})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	// The router, fronting the fleet on the device's chosen protocol.
	router, err := NewRouter(RouterConfig{RingSeed: cfg.Seed, CallTimeout: rebalanceCallTimeout}, fleet.Specs())
	if err != nil {
		return nil, err
	}
	defer router.Close()

	frontLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	frontAddr := frontLn.Addr().String()
	frontDone := make(chan error, 1)
	var hs *http.Server
	if cfg.Proto == "bin" {
		go func() { frontDone <- router.ServeBin(frontLn) }()
	} else {
		hs = &http.Server{Handler: router.Handler()}
		go func() { frontDone <- hs.Serve(frontLn) }()
	}
	defer func() {
		if hs != nil {
			hs.Close()
		}
		frontLn.Close()
		<-frontDone
	}()

	// Optional fault proxy between devices and the router.
	deviceAddr := frontAddr
	if cfg.Faults != (chaos.Config{}) {
		faults := cfg.Faults
		if faults.Seed == 0 {
			faults.Seed = cfg.Seed
		}
		proxy, err := chaos.NewProxy(frontAddr, faults)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		deviceAddr = proxy.Addr()
	}

	// The rebalance: remove the most-loaded shard at a third of the run,
	// add a fresh shard at two thirds, so both changes land mid-stream
	// with sessions live on the moving keyspace.
	var steps []serve.FleetStep
	if cfg.Rebalance {
		total := uint64(cfg.Devices) * uint64(cfg.Periods)
		steps = []serve.FleetStep{
			{At: total / 3, Do: func() error {
				victim := mostLoaded(router.shardLoads())
				rep.Removed = victim
				if cfg.Kill {
					// Abrupt: the shard dies with sessions live, then leaves
					// the ring. Devices see forward failures until the
					// remove lands.
					if err := fleet.KillShard(victim); err != nil {
						return err
					}
					return router.RemoveShard(victim)
				}
				// Graceful: leave the ring first (handoff signals fire, no
				// new forwards), then stop the drained shard.
				if err := router.RemoveShard(victim); err != nil {
					return err
				}
				return fleet.StopShard(victim)
			}},
			{At: 2 * total / 3, Do: func() error {
				spec, err := fleet.AddShard()
				if err != nil {
					return err
				}
				if err := router.AddShard(spec); err != nil {
					return err
				}
				rep.Added = spec.Name
				return nil
			}},
		}
	}
	run := serve.RunFleet(ctx, deviceAddr, cfg.fleet(), steps)
	rep.Moved = router.movedSessions.Load()
	rep.RouterResumes = router.resumesFwd.Load()
	rep.ForwardErrors = router.forwardErrors.Load()
	return run, nil
}

// mostLoaded picks the shard with the most live sessions, name-ordered on
// a tie — fully deterministic for a given seed and schedule.
func mostLoaded(loads map[string]int) string {
	names := make([]string, 0, len(loads))
	for n := range loads {
		names = append(names, n)
	}
	sort.Strings(names)
	victim := names[0]
	for _, n := range names {
		if loads[n] > loads[victim] {
			victim = n
		}
	}
	return victim
}
