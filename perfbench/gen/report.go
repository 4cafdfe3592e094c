//go:build rlpmbench

package main

import (
	"fmt"
	"sort"
	"time"

	"perfbench/measure"
	"rlpm/internal/serve"
)

// endToEnd reports the metrics a fleet operator sees, from the untraced
// window. Throughput, latency percentiles and CPU per decision are taken
// per one-second interval, scaled to the reference host speed by the
// host probes of that interval (probe.go), and reported as the median
// over the intervals, so a burst of interference that spoils a few
// seconds of a run does not move its figures. Set-up time is scaled by
// the window's median probe: the host's speed drifts over minutes, and
// set-up ends seconds before the window starts. The unscaled medians are
// printed on a line of their own.
func endToEnd(m *measure.Metrics, f *fleet, setups []setupTimes, p *phaseResult, rss uint64) error {
	bounds := make([]int64, len(p.ticks))
	for i, t := range p.ticks {
		bounds[i] = t.at
	}
	probes := measure.Split(p.probeAt, bounds)
	var thr, p50, p90, cpu, speed []float64
	for i, g := range measure.Split(p.at, bounds) {
		lat := make([]float64, len(g))
		for j, idx := range g {
			lat[j] = float64(p.lat[idx])
		}
		sort.Float64s(lat)
		v50, err := measure.Percentile(lat, 50)
		if err != nil {
			return fmt.Errorf("interval %d: %w", i, err)
		}
		v90, err := measure.Percentile(lat, 90)
		if err != nil {
			return fmt.Errorf("interval %d: %w", i, err)
		}
		if len(probes[i]) == 0 {
			return fmt.Errorf("interval %d held no host probe", i)
		}
		ns := make([]float64, len(probes[i]))
		for j, idx := range probes[i] {
			ns[j] = float64(p.probeNs[idx])
		}
		// s > 1: the host ran slower than the reference speed.
		s := measure.Median(ns) / float64(refProbe)
		dec := float64(len(g) * f.wl.k)
		width := time.Duration(bounds[i+1] - bounds[i])
		thr = append(thr, dec/width.Seconds())
		p50 = append(p50, v50/1e3)
		p90 = append(p90, v90/1e3)
		cpu = append(cpu, float64(p.ticks[i+1].cpu-p.ticks[i].cpu)/float64(time.Microsecond)/dec)
		speed = append(speed, s)
	}
	if len(thr) == 0 {
		return fmt.Errorf("the window held no whole one-second interval")
	}
	setup := medianSetup(setups, setupTimes.total)
	fmt.Printf("perfbench unscaled {\"decisions_per_s\":%.1f,\"frame_p50_us\":%.3f,\"frame_p90_us\":%.3f,\"cpu_us_per_decision\":%.4f,\"setup_s\":%.4f}\n",
		measure.Median(thr), measure.Median(p50), measure.Median(p90), measure.Median(cpu), setup)
	scaled := func(xs []float64, up bool) float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			if up {
				out[i] = x * speed[i]
			} else {
				out[i] = x / speed[i]
			}
		}
		return measure.Median(out)
	}
	m.Put("decisions_per_s", "1/s", scaled(thr, true))
	m.Put("frame_p50_us", "us", scaled(p50, false))
	m.Put("frame_p90_us", "us", scaled(p90, false))
	m.Put("cpu_us_per_decision", "us", scaled(cpu, false))
	m.Put("server_rss_mb", "MB", float64(rss)/(1<<20))
	m.Put("ok_ratio", "ratio", 1-failRatio(p))
	epq, err := energyPerQoS(f)
	if err != nil {
		return err
	}
	m.Put("energy_per_qos_mj", "mJ", epq)
	m.Put("setup_s", "s", setup/(medianNs(p.probeNs)/float64(refProbe)))
	return nil
}

// perLayer reports the per-layer metrics and the latency budget from the
// traced window, the untraced window before it, and the replay legs.
func perLayer(opt options, m *measure.Metrics, f *fleet, model *serve.Model, setups []setupTimes, plain, tr *phaseResult) error {
	wl := opt.wl
	byKind := make([][]float64, numKinds)
	for _, s := range tr.spans {
		byKind[s.Kind] = append(byKind[s.Kind], float64(s.End-s.Start))
	}
	decide := sortedF(byKind[kindDecide])
	dp50, err := measure.Percentile(decide, 50)
	if err != nil {
		return err
	}
	dp99, err := measure.Percentile(decide, 99)
	if err != nil {
		return err
	}
	rp50, err := measure.Percentile(sortedF(byKind[kindReward]), 50)
	if err != nil {
		return fmt.Errorf("client.reward_ns: %w", err)
	}
	plainP50, err := measure.Percentile(sortedNs(plain.lat), 50)
	if err != nil {
		return err
	}
	frames := float64(tr.frames)

	// device, client, generator
	m.Put("device.apply_ns", "ns", mean(byKind[kindApply]))
	m.Put("client.decide_ns.p50", "ns", dp50)
	m.Put("client.decide_ns.p99", "ns", dp99)
	m.Put("client.reward_ns.p50", "ns", rp50)
	m.Put("client.open_ns.p50", "ns", measure.Median(f.openNs))
	m.Put("client.retries", "count", float64(plain.retries+tr.retries))
	m.Put("client.reconnects", "count", float64(plain.dials+tr.dials))
	m.Put("gen.cpu_us_per_decision", "us/decision", float64(plain.genCPU)/float64(time.Microsecond)/float64(plain.periods))
	m.Put("gen.allocs_per_frame", "allocs/frame", float64(plain.mallocs)/float64(plain.frames))

	// wire
	var wr wireStats
	if !wl.json {
		if wr, err = wireReplay(tr.rec); err != nil {
			return err
		}
	}
	m.Put("wire.req_bytes_per_frame", "B/frame", wr.reqBytes)
	m.Put("wire.resp_bytes_per_frame", "B/frame", wr.respBytes)
	m.Put("wire.encode_decide_ns", "ns/frame", wr.encodeNs)
	m.Put("wire.parse_decide_ns", "ns/frame", wr.parseNs)

	// serve transport, session and batcher, kernel: shard-side deltas
	nShards := max(1, wl.shards)
	stage := func(name string) measure.Hist {
		var h measure.Hist
		for i := 0; i < nShards; i++ {
			h = h.Add(tr.after.scrapes[i].Hist("serve_decide_stage_ns", `stage="`+name+`"`).
				Sub(tr.before.scrapes[i].Hist("serve_decide_stage_ns", `stage="`+name+`"`)))
		}
		return h
	}
	count := func(name string) float64 {
		var v float64
		for i := 0; i < nShards; i++ {
			v += tr.after.scrapes[i].Value(name) - tr.before.scrapes[i].Value(name)
		}
		return v
	}
	bin, decode, write, httpH := stage("bin"), stage("bin_decode"), stage("bin_write"), stage("http")
	queue, asm, backend := stage("queue_wait"), stage("assemble"), stage("backend")
	m.Put("serve.stage.bin_us", "us/frame", bin.Mean()/1e3)
	m.Put("serve.stage.bin_decode_us", "us/frame", decode.Mean()/1e3)
	m.Put("serve.stage.bin_write_us", "us/frame", write.Mean()/1e3)
	m.Put("serve.stage.http_us", "us/frame", httpH.Mean()/1e3)
	m.Put("serve.stage.queue_wait_us", "us/request", queue.Mean()/1e3)
	m.Put("serve.stage.assemble_us", "us/batch", asm.Mean()/1e3)
	m.Put("serve.stage.backend_us", "us/batch", backend.Mean()/1e3)
	batches := count("serve_batches_total")
	m.Put("serve.batch_occupancy", "lookups/batch", ratio(count("serve_batch_lookups_total"), batches))
	m.Put("serve.batches_per_frame", "batches/frame", batches/frames)
	m.Put("serve.decides_deduped", "count", count("serve_decides_deduped_total"))
	m.Put("serve.batch_rejected", "count", count("serve_batch_rejected_total"))
	sess, err := sessionReplay(model, wl, opt.seed, tr.rec)
	if err != nil {
		return err
	}
	m.Put("serve.session_decide_ns", "ns/frame", sess.decideNs)
	m.Put("core.lookup_ns", "ns/lookup", sess.lookupNs)

	// learn
	var updateNs float64
	if wl.learn {
		if updateNs, err = learnReplay(model, opt.seed, tr.rec); err != nil {
			return err
		}
	}
	updates, dropped := count("learn_updates_total"), count("learn_dropped_total")
	m.Put("learn.updates_per_s", "1/s", updates/tr.dur.Seconds())
	m.Put("learn.swaps_per_s", "1/s", count("learn_swaps_total")/tr.dur.Seconds())
	m.Put("learn.dropped_ratio", "ratio", ratio(dropped, updates+dropped))
	m.Put("learn.update_ns", "ns/update", updateNs)

	// shard (router)
	var hopUs, routerCPU, fwdErrs, imbalance float64
	if wl.shards > 0 {
		r := nShards // the router's scrape and CPU follow the shards'
		hopUs = (dp50 - bin.Quantile(0.5)) / 1e3
		routerCPU = cpuDelta(tr, r, r+1) / float64(tr.periods)
		fwdErrs = tr.after.scrapes[r].Value("router_forward_errors_total") - tr.before.scrapes[r].Value("router_forward_errors_total")
		lo, hi := -1.0, 0.0
		for i := 0; i < nShards; i++ {
			d := tr.after.scrapes[i].Value("serve_decisions_total") - tr.before.scrapes[i].Value("serve_decisions_total")
			if lo < 0 || d < lo {
				lo = d
			}
			hi = max(hi, d)
		}
		imbalance = ratio(hi, lo)
	}
	m.Put("shard.hop_us", "us/frame", hopUs)
	m.Put("shard.router_cpu_us_per_decision", "us/decision", routerCPU)
	m.Put("shard.forward_errors", "count", fwdErrs)
	m.Put("shard.imbalance", "ratio", imbalance)

	// host
	m.Put("host.probe_us", "us", medianNs(tr.probeNs)/1e3)

	// setup
	m.Put("setup.train_s", "s", medianSetup(setups, func(t setupTimes) time.Duration { return t.train }))
	m.Put("setup.ready_s", "s", medianSetup(setups, func(t setupTimes) time.Duration { return t.ready }))
	m.Put("setup.sessions_open_s", "s", medianSetup(setups, func(t setupTimes) time.Duration { return t.open }))

	// trace and failures
	m.Put("trace.overhead_ratio", "ratio", dp50/plainP50-1)
	m.Put("fail_ratio", "ratio", failRatio(plain, tr))
	self := measure.SelfTimes(tr.spans, numKinds)
	m.Put("self.generator_us", "us/frame", self[kindFrame]/frames/1e3)
	m.Put("self.device_us", "us/frame", self[kindApply]/frames/1e3)
	m.Put("self.client_decide_us", "us/frame", self[kindDecide]/frames/1e3)
	m.Put("self.client_reward_us", "us/frame", self[kindReward]/frames/1e3)

	// The latency budget: server stages per frame (queue, assemble and
	// backend amortized over the frames they served), the router hop, and
	// the unattributed rest of the client's median round trip. Rows of a
	// layer the workload does not use read 0.
	server := bin.Mean()
	if wl.json {
		server = httpH.Mean()
	}
	q, a, b := queue.Sum/frames/1e3, asm.Sum/frames/1e3, backend.Sum/frames/1e3
	budget, err := measure.NewBudget(dp50/1e3, []measure.BudgetRow{
		{Name: "decode", Us: decode.Mean() / 1e3},
		{Name: "queue", Us: q},
		{Name: "assemble", Us: a},
		{Name: "backend", Us: b},
		{Name: "session", Us: (server-decode.Mean()-write.Mean())/1e3 - q - a - b},
		{Name: "write", Us: write.Mean() / 1e3},
		{Name: "router_hop", Us: hopUs},
	})
	fmt.Print(budget.Table(wl.name))
	if err != nil {
		return err
	}
	for _, r := range budget.Rows {
		m.Put("budget."+r.Name+"_us", "us/frame", r.Us)
	}
	m.Put("budget.unattributed_share", "ratio", budget.UnattributedShare())
	return writeSpans(opt, tr.spans)
}

func medianNs(ns []int64) float64 {
	return measure.Median(sortedNs(ns))
}

func sortedNs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}

func sortedF(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuDelta is the CPU time, in µs, processes [from,to) spent in the phase.
func cpuDelta(p *phaseResult, from, to int) float64 {
	var d time.Duration
	for i := from; i < to; i++ {
		d += p.after.cpu[i] - p.before.cpu[i]
	}
	return float64(d) / float64(time.Microsecond)
}

// failRatio counts failed calls and retried attempts against the calls
// attempted.
func failRatio(ps ...*phaseResult) float64 {
	var bad, all uint64
	for _, p := range ps {
		bad += p.failed + p.retries
		all += p.attempted
	}
	return ratio(float64(bad), float64(all))
}

// energyPerQoS is the paper's objective over the fleet's first
// energyPeriods periods per device: simulated energy in mJ per unit of
// delivered QoS.
func energyPerQoS(f *fleet) (float64, error) {
	var e, q float64
	for _, w := range f.workers {
		for _, d := range w.devs {
			if d.energy.qos == 0 {
				return 0, fmt.Errorf("device %d never reached period %d", d.idx, energyPeriods)
			}
			e += d.energy.mj
			q += d.energy.qos
		}
	}
	return e / q, nil
}

func medianSetup(ts []setupTimes, part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = part(t).Seconds()
	}
	return measure.Median(xs)
}
