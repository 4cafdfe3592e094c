// Differential fleet runner: the device side of every harness that holds a
// served fleet to a single-process oracle. RunFleet drives a fleet of
// simulated devices (RunDeviceSim) at one address over bin or json, fires
// an ordered list of mid-run steps at acked-decision thresholds, and hands
// back each device's decision sequence; OracleMismatches diffs those
// against a fault-free in-process server, and Hygiene checks that the run
// leaked neither goroutines nor heap. The chaos harness (a fault proxy and
// a server restart) and the shard rebalance harness (a router and a
// membership change) differ only in what stands behind the address and
// what their steps do.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Every differential fleet's client runs with a short per-attempt
// deadline and a retry window long enough to cover a restart or handoff.
const (
	fleetCallTimeout = 2 * time.Second
	fleetRetryBudget = 30 * time.Second
)

// FleetConfig is the device side of a differential run.
type FleetConfig struct {
	// Proto is the device transport: "bin" or "json".
	Proto string
	// Devices is the concurrent device count; Periods each device's
	// decide count.
	Devices, Periods int
	// Seed is the fleet base seed (DeviceSeed derives each device's).
	Seed uint64
	// Scenario is the workload every device runs.
	Scenario string
	// Epsilon is the per-session exploration rate.
	Epsilon float64
	// RewardEvery posts a reward every that many periods (0 or negative
	// disables).
	RewardEvery int
}

// device is device idx's simulation config.
func (c FleetConfig) device(idx int) DeviceSimConfig {
	return DeviceSimConfig{
		Scenario:    c.Scenario,
		Periods:     c.Periods,
		Seed:        DeviceSeed(c.Seed, idx),
		RewardEvery: c.RewardEvery,
	}
}

// FleetStep is one mid-run action: once At decisions are acked
// fleet-wide, Do runs. Every device that acks a decision at or past At
// holds before its next decide until Do returns — otherwise a fast fleet
// could finish inside the controller's poll window and the step would
// exercise nothing — while devices that have not crossed it yet keep
// frames in flight across it.
type FleetStep struct {
	At uint64
	Do func() error
}

// FleetRun is what RunFleet observed.
type FleetRun struct {
	// Sequences holds each device's recorded decisions; Errs its failure
	// (nil when the device finished and closed cleanly).
	Sequences [][]int
	Errs      []error
	// Decisions and Rewards count acked decides and acked rewards.
	Decisions uint64
	Rewards   uint64
	// Transport is the client's retry ledger (Dials stays 0 over json).
	Transport BinClientStats
	// StepErr is the first failed step, or the stall that kept the fleet
	// from reaching one. Every later step is skipped.
	StepErr error
}

// DeviceErr is the first device's error, or nil.
func (r *FleetRun) DeviceErr() error {
	for _, e := range r.Errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// RunFleet drives cfg's fleet at addr (host:port of a bin listener, or of
// an HTTP server for json) through steps, in order, and returns when
// every device has finished and every step has run or failed. A failed
// step releases every device still holding and cancels the rest of the
// run.
func RunFleet(ctx context.Context, addr string, cfg FleetConfig, steps []FleetStep) *FleetRun {
	var open func(context.Context, SessionOptions) (deviceSession, error)
	var stats func() BinClientStats
	if cfg.Proto == "bin" {
		bc := NewBinClient(addr)
		bc.SetCallTimeout(fleetCallTimeout)
		bc.SetRetryBudget(fleetRetryBudget)
		defer bc.Close()
		open = func(ctx context.Context, o SessionOptions) (deviceSession, error) { return bc.OpenSession(ctx, o) }
		stats = bc.TransportStats
	} else {
		hc := NewClient("http://" + addr)
		hc.SetCallTimeout(fleetCallTimeout)
		hc.SetRetryBudget(fleetRetryBudget)
		defer hc.CloseIdleConnections()
		open = func(ctx context.Context, o SessionOptions) (deviceSession, error) { return hc.CreateSession(ctx, o) }
		stats = hc.TransportStats
	}

	// A failed step has failed the run: cancelling stops the devices
	// rather than leaving them to spend the retry budget on a broken
	// topology.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &FleetRun{Sequences: make([][]int, cfg.Devices), Errs: make([]error, cfg.Devices)}
	var acked, rewards atomic.Uint64
	gates := make([]chan struct{}, len(steps))
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	ctrlDone := make(chan struct{})
	go func() {
		defer close(ctrlDone)
		for i, st := range steps {
			err := waitAcked(ctx, &acked, st.At)
			if err == nil {
				err = st.Do()
			}
			if err != nil {
				run.StepErr = err
				cancel()
				for _, g := range gates[i:] {
					close(g)
				}
				return
			}
			close(gates[i])
		}
	}()

	var wg sync.WaitGroup
	for d := 0; d < cfg.Devices; d++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			sim := cfg.device(idx)
			sess, err := open(ctx, SessionOptions{Epsilon: cfg.Epsilon, Seed: sim.Seed})
			if err != nil {
				run.Errs[idx] = fmt.Errorf("device %d open: %w", idx, err)
				return
			}
			decide := func(_ int, obs []Observation) ([]int, error) {
				lv, err := sess.Decide(ctx, obs)
				if err != nil {
					return nil, err
				}
				a := acked.Add(1)
				for i, st := range steps {
					if a < st.At {
						continue
					}
					select {
					case <-gates[i]:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				return lv, nil
			}
			reward := func(r float64) error {
				_, err := sess.Reward(ctx, r)
				if err == nil {
					rewards.Add(1)
				}
				return err
			}
			run.Sequences[idx], err = RunDeviceSim(sim, decide, reward)
			if err != nil {
				run.Errs[idx] = fmt.Errorf("device %d: %w", idx, err)
				return
			}
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := sess.Close(cctx); err != nil {
				run.Errs[idx] = fmt.Errorf("device %d close: %w", idx, err)
			}
		}(d)
	}
	wg.Wait()
	<-ctrlDone
	run.Decisions, run.Rewards, run.Transport = acked.Load(), rewards.Load(), stats()
	return run
}

// waitAcked polls until n decisions are acked, failing on ctx or after a
// 60 s stall.
func waitAcked(ctx context.Context, acked *atomic.Uint64, n uint64) error {
	guard := time.Now().Add(60 * time.Second)
	for acked.Load() < n {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(guard) {
			return fmt.Errorf("fleet stalled before step point (%d/%d acked)", acked.Load(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// OracleMismatches replays every device of run that finished cleanly
// against a fault-free in-process server over model and counts the
// devices whose recorded sequence differs — faults, restarts, sharding
// and handoffs may cost time, never a decision.
func OracleMismatches(model *Model, cfg FleetConfig, run *FleetRun) (int, error) {
	oracle, err := New(model, nil, Config{})
	if err != nil {
		return 0, err
	}
	defer oracle.Close()
	mismatches := 0
	for idx := 0; idx < cfg.Devices; idx++ {
		if run.Errs[idx] != nil {
			continue
		}
		sim := cfg.device(idx)
		sess, err := oracle.CreateSession(SessionOptions{Epsilon: cfg.Epsilon, Seed: sim.Seed})
		if err != nil {
			return mismatches, err
		}
		want, err := RunDeviceSim(sim, func(_ int, obs []Observation) ([]int, error) {
			return sess.Decide(obs)
		}, nil)
		if err != nil {
			return mismatches, fmt.Errorf("oracle device %d: %w", idx, err)
		}
		if !slices.Equal(run.Sequences[idx], want) {
			mismatches++
		}
	}
	return mismatches, nil
}

// Hygiene is a run's goroutine and heap ledger: the baseline taken before
// anything starts and what is left once the run is torn down.
type Hygiene struct {
	GoroutinesStart int    `json:"goroutines_start"`
	GoroutinesEnd   int    `json:"goroutines_end"`
	HeapAllocStart  uint64 `json:"heap_alloc_start"`
	HeapAllocEnd    uint64 `json:"heap_alloc_end"`
}

// StartHygiene collects garbage and records the baseline.
func StartHygiene() Hygiene {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Hygiene{GoroutinesStart: runtime.NumGoroutine(), HeapAllocStart: ms.HeapAlloc}
}

// Settle waits up to 5 s for the goroutine count to return to the
// baseline, records the end state, and reports a leaked goroutine or heap
// growth past 256 MiB.
func (h *Hygiene) Settle() error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > h.GoroutinesStart && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.GoroutinesEnd, h.HeapAllocEnd = runtime.NumGoroutine(), ms.HeapAlloc
	switch {
	case h.GoroutinesEnd > h.GoroutinesStart:
		return fmt.Errorf("leaked goroutines: %d before, %d after", h.GoroutinesStart, h.GoroutinesEnd)
	case h.HeapAllocEnd > h.HeapAllocStart+256<<20:
		return fmt.Errorf("heap grew %d bytes", h.HeapAllocEnd-h.HeapAllocStart)
	}
	return nil
}
