//go:build rlpmbench

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perfbench/measure"
	"rlpm/internal/serve"
)

// Span kinds of the traced run. A frame's root span covers its applies,
// its decide and its reward.
const (
	kindFrame = iota
	kindApply
	kindDecide
	kindReward
	numKinds
)

// maxPhase bounds a phase that waits for its devices to reach a period
// count.
const maxPhase = 2 * time.Minute

// maxRecorded caps the frames the traced run keeps for the in-process
// replay legs.
const maxRecorded = 20000

// fleet is the device fleet: one client per endpoint shared by every
// worker, and each worker's devices.
type fleet struct {
	wl        workload
	bin       *serve.BinClient
	http      *serve.Client
	workers   []*worker
	probe     *hostProbe // run by worker 0
	numLevels []int
	openNs    []float64 // one per session open
}

// device is one simulated device and its session.
type device struct {
	idx       int
	opts      serve.SessionOptions
	numLevels []int // per-cluster OPP counts the server reported
	step      *serve.DeviceStepper
	decide    func(context.Context, []serve.Observation) ([]int, error)
	reward    func(context.Context, float64) (serve.SessionStats, error)
	frame     []serve.Observation
	cur       []int
	trace     []byte // every served level, in order
	bad       error  // first out-of-range level
	frames    uint64
	acked     struct{ periods, rewards uint64 }
	// energy is the simulated energy (mJ) and summed per-period QoS over
	// the device's first energyPeriods periods.
	energy struct{ mj, qos float64 }
}

// worker is one closed loop over its devices.
type worker struct {
	f    *fleet
	devs []*device
	next int

	// Per-phase tallies, reset by phase.
	lat               []int64 // untraced decide round trips, ns
	at                []int64 // their completion times, ns since traceEpoch
	spans             []measure.Span
	rec               []recFrame
	frameID           uint64
	frames, periods   uint64
	attempted, failed uint64

	probe            *hostProbe // nil except on worker 0
	probeAt, probeNs []int64    // probe completion times (ns since traceEpoch) and durations
}

// recFrame is one decide frame kept for the replay legs.
type recFrame struct {
	dev      int
	obs      []serve.Observation
	levels   []int
	reward   float64
	rewarded bool
}

func deviceConfig(seed uint64, idx int) serve.DeviceSimConfig {
	// Periods only sizes the stepper's initial trace buffer: the closed
	// loop runs by time, not by period count.
	return serve.DeviceSimConfig{Scenario: scenario, Periods: 64, Seed: serve.DeviceSeed(seed, idx), PeriodS: periodS}
}

// openFleet builds one worker per CPU, each with devicesPerWorker
// devices, and opens every session; the workers open their devices in
// parallel.
func openFleet(ctx context.Context, opt options, front *proc) (*fleet, error) {
	f := &fleet{wl: opt.wl}
	if opt.wl.json {
		f.http = serve.NewClient("http://" + front.httpAddr)
	} else {
		f.bin = serve.NewBinClient(front.binAddr)
	}
	nw := opt.cpus.nproc
	f.workers = make([]*worker, nw)
	var err error
	if f.probe, err = newHostProbe(); err != nil {
		f.close()
		return nil, err
	}
	errs := make([]error, nw)
	openNs := make([][]float64, nw)
	var wg sync.WaitGroup
	for w := range f.workers {
		// Frame ids are unique across workers: spans of different workers
		// never share one.
		f.workers[w] = &worker{f: f, frameID: uint64(w) << 40}
		if w == 0 {
			f.workers[w].probe = f.probe
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < devicesPerWorker; j++ {
				t0 := time.Now()
				d, err := f.openDevice(ctx, opt.seed, w*devicesPerWorker+j)
				if err != nil {
					errs[w] = err
					return
				}
				openNs[w] = append(openNs[w], float64(time.Since(t0)))
				f.workers[w].devs = append(f.workers[w].devs, d)
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.close()
		return nil, err
	}
	for _, o := range openNs {
		f.openNs = append(f.openNs, o...)
	}
	f.numLevels = f.workers[0].devs[0].numLevels
	return f, nil
}

func (f *fleet) openDevice(ctx context.Context, seed uint64, idx int) (*device, error) {
	step, err := serve.NewDeviceStepper(deviceConfig(seed, idx))
	if err != nil {
		return nil, err
	}
	d := &device{idx: idx, step: step, cur: make([]int, step.Clusters()),
		opts: serve.SessionOptions{Epsilon: f.wl.epsilon, Seed: serve.DeviceSeed(seed, idx)}}
	var levels []int
	if f.http != nil {
		s, err := f.http.CreateSession(ctx, d.opts)
		if err != nil {
			return nil, fmt.Errorf("device %d: open: %w", idx, err)
		}
		d.decide, d.reward, levels = s.Decide, s.Reward, s.NumLevels
	} else {
		s, err := f.bin.OpenSession(ctx, d.opts)
		if err != nil {
			return nil, fmt.Errorf("device %d: open: %w", idx, err)
		}
		d.decide, d.reward, levels = s.Decide, s.Reward, s.Levels
		if f.wl.k > 1 {
			d.decide = s.DecideMany
		}
	}
	if len(levels) != step.Clusters() {
		return nil, fmt.Errorf("device %d: server serves %d clusters, device has %d", idx, len(levels), step.Clusters())
	}
	d.numLevels = levels
	return d, nil
}

func (f *fleet) close() {
	if f.probe != nil {
		f.probe.close()
	}
	if f.bin != nil {
		f.bin.Close()
	}
	if f.http != nil {
		f.http.CloseIdleConnections()
	}
}

// transport reports the client's retry ledger.
func (f *fleet) transport() serve.BinClientStats {
	if f.bin != nil {
		return f.bin.TransportStats()
	}
	return f.http.TransportStats()
}

// assemble builds a K-period frame: the current period's observations,
// then K-1 further periods stepped open-loop at the current levels. The
// oracle replays frames through this same function.
func assemble(step *serve.DeviceStepper, frame []serve.Observation, cur []int, k int, onApply func(start time.Time)) ([]serve.Observation, error) {
	frame = append(frame[:0], step.Obs()...)
	for p := 1; p < k; p++ {
		for i, o := range step.Obs() {
			cur[i] = o.Level
		}
		t0 := time.Now()
		if _, _, err := step.Apply(cur); err != nil {
			return frame, err
		}
		if onApply != nil {
			onApply(t0)
		}
		frame = append(frame, step.Obs()...)
	}
	return frame, nil
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	dur               time.Duration
	lat, at           []int64
	probeAt, probeNs  []int64
	spans             []measure.Span
	rec               []recFrame
	frames, periods   uint64
	attempted, failed uint64
	retries, dials    uint64

	// Set by measuredPhase.
	before, after *sample
	ticks         []cpuTick
	genCPU        time.Duration
	mallocs       uint64
}

// cpuTick is the server side's total CPU time at one instant.
type cpuTick struct {
	at  int64 // ns since traceEpoch
	cpu time.Duration
}

// phase runs the closed loop for dur, and beyond it until every device
// has applied at least minPeriods periods. Every worker finishes the frame
// in flight, so no frame straddles two phases. traced records spans and
// the replay frames instead of bare round trips.
func (f *fleet) phase(ctx context.Context, dur time.Duration, minPeriods int, traced bool) (*phaseResult, error) {
	ts0 := f.transport()
	start := time.Now()
	deadline := start.Add(dur)
	var stop atomic.Bool
	errs := make([]error, len(f.workers))
	var wg sync.WaitGroup
	for i, w := range f.workers {
		recCap := 0
		if traced {
			recCap = maxRecorded / len(f.workers)
			// Size the span buffer from the previous phase's frame count
			// (k applies, a decide, a reward and the root per frame), so
			// tracing rarely pays for a buffer regrowth mid-window.
			w.spans = make([]measure.Span, 0, (f.wl.k+3)*len(w.lat))
		}
		w.lat, w.at, w.spans, w.rec = w.lat[:0], w.at[:0], w.spans[:0], nil
		w.frames, w.periods, w.attempted, w.failed = 0, 0, 0, 0
		w.probeAt, w.probeNs = w.probeAt[:0], w.probeNs[:0]
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				// Round robin: the next device is the least advanced.
				d := w.devs[w.next]
				if !time.Now().Before(deadline) && d.step.Period() >= minPeriods {
					return
				}
				if time.Since(start) > maxPhase {
					errs[i] = fmt.Errorf("device %d applied %d of %d periods in %v", d.idx, d.step.Period(), minPeriods, maxPhase)
					stop.Store(true)
					return
				}
				w.next = (w.next + 1) % len(w.devs)
				if err := w.frame(ctx, d, traced, recCap); err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	r := &phaseResult{dur: time.Since(start)}
	if err := errors.Join(errs...); err != nil {
		return r, err
	}
	if err := ctx.Err(); err != nil {
		return r, err
	}
	for _, w := range f.workers {
		r.lat = append(r.lat, w.lat...)
		r.at = append(r.at, w.at...)
		r.spans = append(r.spans, w.spans...)
		r.rec = append(r.rec, w.rec...)
		r.frames += w.frames
		r.periods += w.periods
		r.attempted += w.attempted
		r.failed += w.failed
		r.probeAt = append(r.probeAt, w.probeAt...)
		r.probeNs = append(r.probeNs, w.probeNs...)
	}
	ts1 := f.transport()
	r.retries, r.dials = ts1.Retries-ts0.Retries, ts1.Dials-ts0.Dials
	return r, nil
}

func (w *worker) span(kind, parent int8, start, end time.Time) {
	w.spans = append(w.spans, measure.Span{Frame: w.frameID, Kind: kind, Parent: parent,
		Start: start.Sub(traceEpoch).Nanoseconds(), End: end.Sub(traceEpoch).Nanoseconds()})
}

// frame runs one decide frame for d: assemble, decide, apply the freshest
// period's levels, and report the reward on cadence.
func (w *worker) frame(ctx context.Context, d *device, traced bool, recCap int) error {
	k, n := w.f.wl.k, len(d.cur)
	t0 := time.Now()
	var onApply func(time.Time)
	if traced {
		w.frameID++
		onApply = func(s time.Time) { w.span(kindApply, kindFrame, s, time.Now()) }
	}
	var err error
	if d.frame, err = assemble(d.step, d.frame, d.cur, k, onApply); err != nil {
		return fmt.Errorf("device %d: %w", d.idx, err)
	}
	c0 := time.Now()
	levels, err := d.decide(ctx, d.frame)
	c1 := time.Now()
	w.attempted++
	if err != nil {
		w.failed++
		return fmt.Errorf("device %d: decide: %w", d.idx, err)
	}
	if traced {
		w.span(kindDecide, kindFrame, c0, c1)
	} else {
		w.lat = append(w.lat, c1.Sub(c0).Nanoseconds())
		w.at = append(w.at, c1.Sub(traceEpoch).Nanoseconds())
	}
	if len(levels) != k*n {
		return fmt.Errorf("device %d: %d levels for %d observations", d.idx, len(levels), k*n)
	}
	for i, l := range levels {
		if lim := w.f.numLevels[i%n]; (l < 0 || l >= lim) && d.bad == nil {
			d.bad = fmt.Errorf("device %d period %d cluster %d: level %d outside [0,%d)",
				d.idx, len(d.trace)/n, i%n, l, lim)
		}
		d.trace = append(d.trace, byte(l))
	}
	d.acked.periods += uint64(k)
	var rec *recFrame
	if len(w.rec) < recCap {
		w.rec = append(w.rec, recFrame{dev: d.idx, obs: append([]serve.Observation(nil), d.frame...),
			levels: append([]int(nil), levels...)})
		rec = &w.rec[len(w.rec)-1]
	}

	a0 := time.Now()
	r, _, err := d.step.Apply(levels[(k-1)*n:])
	if err != nil {
		return fmt.Errorf("device %d: %w", d.idx, err)
	}
	if traced {
		w.span(kindApply, kindFrame, a0, time.Now())
	}
	if d.step.Period() == energyPeriods {
		d.energy.mj = d.step.EnergyJ() * 1e3
		d.energy.qos = d.step.MeanQoS() * energyPeriods
	}
	d.frames++
	w.frames++
	w.periods += uint64(k)
	if d.frames%uint64(w.f.wl.rewardEvery) == 0 {
		r0 := time.Now()
		_, err := d.reward(ctx, r)
		w.attempted++
		if err != nil {
			w.failed++
			return fmt.Errorf("device %d: reward: %w", d.idx, err)
		}
		d.acked.rewards++
		if traced {
			w.span(kindReward, kindFrame, r0, time.Now())
		}
		if rec != nil {
			rec.reward, rec.rewarded = r, true
		}
	}
	if traced {
		w.span(kindFrame, -1, t0, time.Now())
	}
	if w.probe != nil && w.frames%probeEvery == 0 {
		d, err := w.probe.run()
		if err != nil {
			return fmt.Errorf("host probe: %w", err)
		}
		w.probeAt = append(w.probeAt, time.Since(traceEpoch).Nanoseconds())
		w.probeNs = append(w.probeNs, d.Nanoseconds())
	}
	return nil
}

// measuredPhase wraps phase with the server-side and generator-side
// readings taken at its bounds, and a reading of the server side's CPU
// time once a second, whose instants bound the intervals the end-to-end
// metrics are computed over.
func (s *stack) measuredPhase(ctx context.Context, dur time.Duration, traced bool) (*phaseResult, error) {
	before, err := s.scrapeAll()
	if err != nil {
		return nil, err
	}
	cpu0, err := measure.ProcCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	host0, err := readCPUTimes(s.opt.cpus.cpu)
	if err != nil {
		return nil, err
	}

	tick := func() (cpuTick, error) {
		now := time.Now()
		var sum time.Duration
		for _, p := range s.procs() {
			c, err := measure.ProcCPU(p.cmd.Process.Pid)
			if err != nil {
				return cpuTick{}, fmt.Errorf("%s: %w", p.name, err)
			}
			sum += c
		}
		return cpuTick{at: now.Sub(traceEpoch).Nanoseconds(), cpu: sum}, nil
	}
	first, err := tick()
	if err != nil {
		return nil, err
	}
	ticks := []cpuTick{first}
	var tickErr error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c, err := tick()
				if err != nil {
					tickErr = err
					return
				}
				ticks = append(ticks, c)
			}
		}
	}()
	r, err := s.fleet.phase(ctx, dur, 0, traced)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if tickErr != nil {
		return nil, tickErr
	}
	r.ticks = ticks
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - mallocs0
	cpu1, err := measure.ProcCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.genCPU = cpu1 - cpu0
	host1, err := readCPUTimes(s.opt.cpus.cpu)
	if err != nil {
		return nil, err
	}
	// Where the benchmark CPU's time went: to the benchmark's processes,
	// to idling, to soft interrupts (loopback delivery) or to other guests
	// of the host (steal), so that a run that reads slow can be traced to
	// the host or to the program.
	h := host1.Sub(host0)
	procs := r.genCPU + ticks[len(ticks)-1].cpu - ticks[0].cpu
	fmt.Printf("perfbench window {\"traced\":%v,\"seconds\":%.3f,\"frames\":%d,\"probe_us\":%.3f,\"procs_cpu_share\":%.4f,\"idle_share\":%.4f,\"softirq_share\":%.4f,\"steal_share\":%.4f}\n",
		traced, r.dur.Seconds(), r.frames, medianNs(r.probeNs)/1e3, procs.Seconds()/r.dur.Seconds(),
		ratio(float64(h.Idle), float64(h.Total)), ratio(float64(h.Softirq), float64(h.Total)), ratio(float64(h.Steal), float64(h.Total)))
	r.before = before
	if r.after, err = s.scrapeAll(); err != nil {
		return nil, err
	}
	return r, nil
}

func readCPUTimes(cpu int) (measure.CPUTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return measure.CPUTimes{}, err
	}
	return measure.ParseCPUTimes(b, cpu)
}
