package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"rlpm/internal/obs"
	"rlpm/internal/stats"
	"rlpm/internal/workload"
)

// LoadConfig parameterizes a load-generation run: N simulated devices,
// each stepping its own DeviceStepper locally, asking the server for every
// OPP decision and posting a reward every 50 periods — the fleet-shaped
// traffic the serving subsystem exists for.
type LoadConfig struct {
	// BaseURL targets the server's HTTP listener (e.g.
	// "http://127.0.0.1:7421"). Health checks and the post-run metrics
	// snapshot always ride HTTP, whatever Proto says.
	BaseURL string
	// Proto selects the decision transport: "json" (default) drives the
	// HTTP/JSON path, "bin" the internal/wire binary protocol.
	Proto string
	// BinAddr is the binary listener's address ("host:port"); required
	// when Proto is "bin" and BinAddrs is empty.
	BinAddr string
	// BinAddrs lists N binary listeners (a sharded fleet). With more than
	// one address, ShardFor must place each device; devices then drive
	// their owning shard directly, bypassing any router hop — the
	// configuration the scaling curve measures.
	BinAddrs []string
	// ShardFor maps a device stream seed (DeviceSeed(Seed, idx)) to an
	// index into BinAddrs. Required when len(BinAddrs) > 1; the shard
	// package supplies the ring's owner function so the load generator
	// and the router agree on placement.
	ShardFor func(seed uint64) int
	// Devices is the concurrent device count.
	Devices int
	// Workers bounds the goroutine count: 0 (default) runs one goroutine
	// per device; W > 0 runs W workers, each round-robining one decide
	// frame per owned device per pass. 100k-device runs need this — the
	// per-device state stays, but stacks and scheduler load do not.
	Workers int
	// Duration is the wall-clock run length.
	Duration time.Duration
	// Scenario is the workload every device runs (default "gaming");
	// per-device seeds decorrelate the demand streams.
	Scenario string
	// Seed derives per-device scenario and exploration seeds.
	Seed uint64
	// Epsilon is the per-session exploration rate (default 0: greedy).
	Epsilon float64
	// PeriodsPerFrame bundles that many consecutive control periods into
	// each decide frame (default 1). K>1 requires the binary protocol
	// (BinSession.DecideMany): the device simulates K periods at its
	// current levels, ships all K observations in one frame, and applies
	// the final period's decision — trading per-period control latency for
	// K× fewer round trips, the regime where the served policy's cost must
	// stay negligible against the control period.
	PeriodsPerFrame int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Proto == "" {
		c.Proto = "json"
	}
	if c.Scenario == "" {
		c.Scenario = "gaming"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PeriodsPerFrame == 0 {
		c.PeriodsPerFrame = 1
	}
	return c
}

// Validate checks the configuration.
func (c LoadConfig) Validate() error {
	if c.BaseURL == "" {
		return fmt.Errorf("serve: load config needs a base URL")
	}
	if c.Proto != "json" && c.Proto != "bin" {
		return fmt.Errorf("serve: unknown protocol %q (want json or bin)", c.Proto)
	}
	if c.Proto == "bin" && c.BinAddr == "" && len(c.BinAddrs) == 0 {
		return fmt.Errorf("serve: protocol bin needs a binary listener address")
	}
	if len(c.BinAddrs) > 0 && c.Proto != "bin" {
		return fmt.Errorf("serve: sharded addresses need the bin protocol")
	}
	if len(c.BinAddrs) > 1 && c.ShardFor == nil {
		return fmt.Errorf("serve: %d shard addresses need a ShardFor placement function", len(c.BinAddrs))
	}
	if c.Devices < 1 {
		return fmt.Errorf("serve: need at least one device, got %d", c.Devices)
	}
	if c.Workers < 0 {
		return fmt.Errorf("serve: negative worker count %d", c.Workers)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("serve: non-positive duration %v", c.Duration)
	}
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("serve: bad epsilon %v", c.Epsilon)
	}
	if c.PeriodsPerFrame < 0 {
		return fmt.Errorf("serve: negative periods per frame %d", c.PeriodsPerFrame)
	}
	if c.PeriodsPerFrame > 1 && c.Proto != "bin" {
		return fmt.Errorf("serve: %d periods per frame needs the bin protocol", c.PeriodsPerFrame)
	}
	return nil
}

// LatencyQuantiles summarizes client-observed decision latency in
// nanoseconds.
type LatencyQuantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// LoadReport is the outcome of a load run. Decisions counts control
// periods (a K-period frame is K decisions); LatencyNs measures frame
// round trips.
type LoadReport struct {
	Proto           string  `json:"proto"`
	Devices         int     `json:"devices"`
	PeriodsPerFrame int     `json:"periods_per_frame,omitempty"`
	DurationS       float64 `json:"duration_s"`
	Decisions       uint64  `json:"decisions"`
	Errors          uint64  `json:"errors"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	// LatencyNs holds exact sample quantiles (stats.Percentile's R-7
	// linear interpolation over every recorded round trip).
	LatencyNs LatencyQuantiles `json:"latency_ns"`
	// LatencyHistNs holds the same quantiles recovered from the shared
	// obs histogram — what a scrape-based monitor would report; exact
	// within bucket resolution.
	LatencyHistNs LatencyQuantiles `json:"latency_hist_ns"`
	// LatencyBuckets is the populated tail of the shared latency
	// histogram (log-spaced ns bins; le_ns -1 marks the overflow bin).
	LatencyBuckets []obs.Bucket `json:"latency_buckets,omitempty"`
	// Server is the target's /metrics snapshot taken after the run.
	Server *Metrics `json:"server,omitempty"`
}

// deviceStats is one device goroutine's ledger.
type deviceStats struct {
	decisions uint64
	errors    uint64
	latencies []int64
}

// RunLoad drives cfg.Devices simulated devices against the server and
// reports aggregate throughput and latency quantiles. It first waits for
// the server to pass /healthz, so callers can start server and load
// generator concurrently. The run is phased: every session is established
// before the clock starts, the cfg.Duration window measures decide
// traffic only, and the fleet closes after the window — so the reported
// rate is steady-state decide throughput, not session churn.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := workload.ByName(cfg.Scenario); err != nil {
		return nil, err
	}
	client := NewClient(cfg.BaseURL)
	if err := client.WaitHealthy(ctx, 10*time.Second); err != nil {
		return nil, err
	}
	// openFor resolves the decision transport for one device; health and
	// metrics stay HTTP. A sharded bin run places each device on its
	// owning shard via ShardFor over the endpoint-independent device seed,
	// so placement agrees with the router's ring by construction.
	openFor := func(int) func(context.Context, SessionOptions) (deviceSession, error) {
		return func(ctx context.Context, opts SessionOptions) (deviceSession, error) {
			return client.CreateSession(ctx, opts)
		}
	}
	if cfg.Proto == "bin" {
		addrs := cfg.BinAddrs
		if len(addrs) == 0 {
			addrs = []string{cfg.BinAddr}
		}
		clients := make([]*BinClient, len(addrs))
		for i, a := range addrs {
			clients[i] = NewBinClient(a)
			defer clients[i].Close()
		}
		openFor = func(idx int) func(context.Context, SessionOptions) (deviceSession, error) {
			bc := clients[0]
			if len(clients) > 1 {
				bc = clients[cfg.ShardFor(DeviceSeed(cfg.Seed, idx))%len(clients)]
			}
			return func(ctx context.Context, opts SessionOptions) (deviceSession, error) {
				return bc.OpenSession(ctx, opts)
			}
		}
	}

	// Every device observes its round trips into one shared histogram —
	// the fleet-side mirror of the server's decide-stage histograms.
	hist := obs.NewHistogram("pmload_decide_latency_ns", "client-observed decide round-trip latency")
	devStats := make([]deviceStats, cfg.Devices)

	// Device ownership: one contiguous range per worker in bounded mode,
	// one range per device otherwise.
	type span struct{ lo, hi int }
	var spans []span
	if w := cfg.Workers; w > 0 && w < cfg.Devices {
		for wk := 0; wk < w; wk++ {
			spans = append(spans, span{wk * cfg.Devices / w, (wk + 1) * cfg.Devices / w})
		}
	} else {
		for d := 0; d < cfg.Devices; d++ {
			spans = append(spans, span{d, d + 1})
		}
	}

	// Phase 1: establish every session BEFORE the clock starts, so the
	// measured window holds decide traffic only. (At fleet scale the
	// one-time session setup otherwise dominates a fixed window and the
	// throughput numbers stop meaning anything.)
	live := make([][]*loadDevice, len(spans))
	var wg sync.WaitGroup
	for i, sp := range spans {
		wg.Add(1)
		go func(i int, sp span) {
			defer wg.Done()
			for idx := sp.lo; idx < sp.hi; idx++ {
				d, err := newLoadDevice(ctx, openFor(idx), cfg, idx, &devStats[idx])
				if err != nil {
					devStats[idx].errors++
					continue
				}
				live[i] = append(live[i], d)
			}
		}(i, sp)
	}
	wg.Wait()

	// Phase 2: the measured decide window.
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			live[i] = decideRange(ctx, live[i], deadline, hist)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Phase 3: close the fleet outside the window.
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, d := range live[i] {
				d.close()
			}
		}(i)
	}
	wg.Wait()

	rep := &LoadReport{Proto: cfg.Proto, Devices: cfg.Devices, PeriodsPerFrame: cfg.PeriodsPerFrame, DurationS: elapsed.Seconds()}
	var all []int64
	for _, st := range devStats {
		rep.Decisions += st.decisions
		rep.Errors += st.errors
		all = append(all, st.latencies...)
	}
	if elapsed > 0 {
		rep.DecisionsPerSec = float64(rep.Decisions) / elapsed.Seconds()
	}
	rep.LatencyNs = quantiles(all)
	snap := hist.Snapshot()
	rep.LatencyHistNs = LatencyQuantiles{
		P50: snap.Quantile(0.50),
		P90: snap.Quantile(0.90),
		P99: snap.Quantile(0.99),
		Max: float64(snap.Max),
	}
	rep.LatencyBuckets = snap.NonZero()
	if m, err := client.Metrics(ctx); err == nil {
		rep.Server = &m
	}
	return rep, nil
}

// deviceSession is what a simulated device needs from a session, satisfied
// by both RemoteSession (HTTP/JSON) and BinSession (wire frames), so one
// device loop — the load generator's or the differential fleet's — drives
// either transport.
type deviceSession interface {
	NumClusters() int
	Decide(ctx context.Context, obs []Observation) ([]int, error)
	Reward(ctx context.Context, r float64) (SessionStats, error)
	Close(ctx context.Context) (SessionStats, error)
}

// loadRewardEvery is the load generator's reward cadence in periods.
const loadRewardEvery = 50

// loadDevice is one simulated device's live state: its DeviceStepper,
// its session, and the frame-assembly scratch. The per-device loop is a
// struct (not a closed-over goroutine body) so a worker can interleave
// many devices frame-by-frame without one goroutine each.
type loadDevice struct {
	st     *deviceStats
	sess   deviceSession
	decide func(context.Context, []Observation) ([]int, error)
	step   *DeviceStepper
	cur    []int
	frame  []Observation
	k      int
}

// newLoadDevice builds device idx's stepper and session. Errors are
// counted into st and returned; the device never joins the fleet.
func newLoadDevice(ctx context.Context, open func(context.Context, SessionOptions) (deviceSession, error), cfg LoadConfig, idx int, st *deviceStats) (*loadDevice, error) {
	seed := DeviceSeed(cfg.Seed, idx)
	// Periods stays 0: the load run is time-based, so nothing is traced.
	step, err := NewDeviceStepper(DeviceSimConfig{Scenario: cfg.Scenario, Seed: seed, RewardEvery: loadRewardEvery})
	if err != nil {
		return nil, err
	}
	sess, err := open(ctx, SessionOptions{Epsilon: cfg.Epsilon, Seed: seed})
	if err != nil {
		return nil, err
	}
	n := step.Clusters()
	d := &loadDevice{st: st, sess: sess, decide: sess.Decide, step: step, cur: make([]int, n), k: cfg.PeriodsPerFrame}
	fail := func(err error) (*loadDevice, error) {
		d.close()
		return nil, err
	}
	if sess.NumClusters() != n {
		return fail(fmt.Errorf("server chip has %d clusters, device has %d", sess.NumClusters(), n))
	}
	if d.k > 1 {
		bs, ok := sess.(*BinSession)
		if !ok {
			return fail(fmt.Errorf("session %T cannot batch %d periods per frame", sess, d.k))
		}
		d.decide = bs.DecideMany
	}
	d.frame = make([]Observation, 0, d.k*n)
	return d, nil
}

// frameStep runs one decide frame: assemble the K-period frame, fetch the
// decision, apply the freshest period's levels, and post the reward when
// a RewardEvery boundary fell inside the frame.
func (d *loadDevice) frameStep(ctx context.Context, hist *obs.Histogram) error {
	// Assemble the frame: the current period's observations, plus k-1
	// further periods simulated open-loop at the current levels.
	d.frame = append(d.frame[:0], d.step.Obs()...)
	due := false
	for p := 1; p < d.k; p++ {
		for i, o := range d.step.Obs() {
			d.cur[i] = o.Level
		}
		_, dueP, err := d.step.Apply(d.cur)
		if err != nil {
			return err
		}
		due = due || dueP
		d.frame = append(d.frame, d.step.Obs()...)
	}
	t0 := time.Now()
	levels, err := d.decide(ctx, d.frame)
	if err != nil {
		return err
	}
	d.st.decisions += uint64(d.k)
	lat := time.Since(t0).Nanoseconds()
	d.st.latencies = append(d.st.latencies, lat)
	hist.Observe(lat)
	n := len(d.cur)
	if len(levels) != d.k*n {
		return fmt.Errorf("server returned %d levels for %d observations", len(levels), d.k*n)
	}
	// Apply the final period's decision — the freshest one — and step
	// into the next period under it.
	r, dueP, err := d.step.Apply(levels[(d.k-1)*n:])
	if err != nil {
		return err
	}
	if due || dueP {
		if _, err := d.sess.Reward(ctx, r); err != nil {
			return err
		}
	}
	return nil
}

// close ends the device's session, counting a failed close as an error.
func (d *loadDevice) close() {
	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := d.sess.Close(closeCtx); err != nil {
		d.st.errors++
	}
}

// decideRange round-robins one decide frame per live device per pass
// until the deadline, checking the deadline between frames so a pass
// over a large range cannot overrun the window. A device error aborts
// that device (counted, session closed); it never panics the fleet. It
// returns the devices still live for the caller to close. With one
// device this degenerates to the classic per-device loop.
func decideRange(ctx context.Context, live []*loadDevice, deadline time.Time, hist *obs.Histogram) []*loadDevice {
	for len(live) > 0 {
		n := 0
		for j, d := range live {
			if !time.Now().Before(deadline) || ctx.Err() != nil {
				// Window closed mid-pass: keep the unvisited tail live.
				return append(live[:n], live[j:]...)
			}
			if err := d.frameStep(ctx, hist); err != nil {
				d.st.errors++
				d.close()
				continue
			}
			live[n] = d
			n++
		}
		live = live[:n]
		if !time.Now().Before(deadline) || ctx.Err() != nil {
			break
		}
	}
	return live
}

// quantiles computes latency quantiles over raw nanosecond samples using
// stats.Percentile's R-7 linear interpolation — the same definition the
// experiment harness reports — on a sorted copy, so the caller's slice is
// never reordered. (The previous nearest-rank truncation biased p90/p99
// low for small samples and disagreed with stats.Percentile; the
// regression test pins the two implementations together.)
func quantiles(ns []int64) LatencyQuantiles {
	if len(ns) == 0 {
		return LatencyQuantiles{}
	}
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	at := func(p float64) float64 {
		v, _ := stats.PercentileSorted(s, p)
		return v
	}
	return LatencyQuantiles{
		P50: at(50),
		P90: at(90),
		P99: at(99),
		Max: s[len(s)-1],
	}
}
