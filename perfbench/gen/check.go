//go:build rlpmbench

package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"perfbench/measure"
	"rlpm/internal/serve"
)

// checkCorrect is the correctness gate of every run:
//   - every served level is in range;
//   - the servers' decision and reward counters equal what the clients
//     had acknowledged (exactly once);
//   - on a frozen policy, every device's served trace is byte-identical
//     to an in-process oracle session hydrated from the same checkpoint
//     and replayed with the same framing.
func checkCorrect(opt options, f *fleet, model *serve.Model, final *sample) error {
	var periods, rewards uint64
	var errs []error
	for _, w := range f.workers {
		for _, d := range w.devs {
			periods += d.acked.periods
			rewards += d.acked.rewards
			if d.bad != nil {
				errs = append(errs, d.bad)
			}
		}
	}
	var srvDecisions, srvRewards float64
	for i := 0; i < max(1, opt.wl.shards); i++ {
		srvDecisions += final.scrapes[i].Value("serve_decisions_total")
		srvRewards += final.scrapes[i].Value("serve_rewards_total")
	}
	if srvDecisions != float64(periods) {
		errs = append(errs, fmt.Errorf("servers count %.0f decisions, clients acknowledged %d", srvDecisions, periods))
	}
	if srvRewards != float64(rewards) {
		errs = append(errs, fmt.Errorf("servers count %.0f rewards, clients acknowledged %d", srvRewards, rewards))
	}
	if !opt.wl.learn {
		oracle, err := oracleTraces(model, opt.wl, opt.seed, f)
		if err != nil {
			return err
		}
		if err := measure.CompareTraces(oracle, servedTraces(f), len(f.numLevels)); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// servedTraces lists the devices' served traces in device order.
func servedTraces(f *fleet) [][]byte {
	var out [][]byte
	for _, w := range f.workers {
		for _, d := range w.devs {
			out = append(out, d.trace)
		}
	}
	return out
}

// oracleTraces replays every device in process: a fresh stepper with the
// device's seed, a session with its options on a server built from the
// checkpoint model, and as many frames of the workload's framing as the
// device was served. Rewards are not replayed: a frozen policy ignores
// them.
func oracleTraces(model *serve.Model, wl workload, seed uint64, f *fleet) ([][]byte, error) {
	srv, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var devs []*device
	for _, w := range f.workers {
		devs = append(devs, w.devs...)
	}
	out := make([][]byte, len(devs))
	errs := make([]error, len(devs))
	next := make(chan int, len(devs)) // every index is queued before the workers start
	for i := range devs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = oracleTrace(srv, wl, seed, devs[i])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func oracleTrace(srv *serve.Server, wl workload, seed uint64, d *device) ([]byte, error) {
	step, err := serve.NewDeviceStepper(deviceConfig(seed, d.idx))
	if err != nil {
		return nil, err
	}
	sess, err := srv.CreateSession(d.opts)
	if err != nil {
		return nil, err
	}
	n := step.Clusters()
	frames := len(d.trace) / (wl.k * n)
	trace := make([]byte, 0, len(d.trace))
	levels := make([]int, wl.k*n)
	cur := make([]int, n)
	var frame []serve.Observation
	for i := 0; i < frames; i++ {
		if frame, err = assemble(step, frame, cur, wl.k, nil); err != nil {
			return nil, err
		}
		if err := sess.DecideInto(frame, levels); err != nil {
			return nil, fmt.Errorf("oracle device %d frame %d: %w", d.idx, i, err)
		}
		for _, l := range levels {
			trace = append(trace, byte(l))
		}
		if _, _, err := step.Apply(levels[(wl.k-1)*n:]); err != nil {
			return nil, err
		}
	}
	return trace, nil
}
