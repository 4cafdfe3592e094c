//go:build rlpmbench

// Command gen is the serving benchmark's load generator and judge. It
// trains the policy, starts the serving processes, drives a closed-loop
// device fleet against them, checks every decision against an in-process
// oracle, and prints one JSON verdict as its last line of output.
//
// It imports the serving packages it measures, so it is compiled inside
// the rlpm module through a build overlay; run it with perfbench/run.sh
// rather than directly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perfbench/measure"
)

// workload is one traffic shape. Every workload is a closed loop: nproc
// workers, each round-robining devicesPerWorker devices and waiting for
// each reply before sending the next frame.
type workload struct {
	name        string
	json        bool    // HTTP/JSON instead of the binary protocol
	shards      int     // 0: one pmserve; N: pmrouter over N pmserve shards
	k           int     // control periods per decide frame
	learn       bool    // serve with -learn (live Q-updates)
	epsilon     float64 // session exploration rate
	rewardEvery int     // frames between reward reports
}

var workloads = []workload{
	{name: "direct-bin", k: 1, rewardEvery: 50},
	{name: "router-bin", shards: 2, k: 1, rewardEvery: 50},
	{name: "learn-k4", k: 4, learn: true, epsilon: 0.2, rewardEvery: 1},
	{name: "direct-json", json: true, k: 1, rewardEvery: 50},
}

// traceEpoch is time zero of the recorded spans.
var traceEpoch = time.Now()

const (
	devicesPerWorker = 128
	scenario         = "gaming"
	periodS          = 0.05
	setupReps        = 5 // setup_s is the median of this many full set-ups
	warmup           = time.Second
	// energyPeriods is the span of every device's life, from its first
	// period, over which energy per QoS is reported. The simulated chip
	// heats up, so energy per period grows with device age: a fixed span
	// keeps the metric independent of how fast the fleet was served. The
	// warm-up lasts until every device has reached it; it must be a
	// multiple of every workload's periods per frame.
	energyPeriods = 128
)

type options struct {
	wl      workload
	seed    uint64
	seconds int
	trace   bool
	bindir  string // holds pmserve and pmrouter
	workdir string // checkpoints, process logs, span dumps
	cpus    placement
}

func main() {
	cpus, err := place()
	if err != nil {
		fatal(err)
	}
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed: device streams, session seeds, learner coin")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		bindir  = flag.String("bindir", "", "directory holding the pmserve and pmrouter binaries")
		workdir = flag.String("workdir", "", "work directory for checkpoints, logs and spans")
	)
	flag.Parse()
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, bindir: *bindir, workdir: *workdir, cpus: cpus}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			opt.wl, found = w, true
		}
	}
	switch {
	case !found:
		fatal(fmt.Errorf("unknown workload %q", *name))
	case *trace != 0 && *trace != 1:
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	case opt.seconds < 1:
		fatal(fmt.Errorf("-seconds must be at least 1"))
	case opt.bindir == "" || opt.workdir == "":
		fatal(errors.New("-bindir and -workdir are required"))
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	meta, err := json.Marshal(collectMeta(opt))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench meta %s\n", meta)

	res, checkErr, err := run(ctx, opt)
	if err != nil {
		fatal(err)
	}
	line, err := res.JSON()
	if err != nil {
		fatal(err)
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", checkErr)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run performs one benchmark run: set up setupReps times (keeping the
// last stack), warm up, measure, tear down, and check correctness.
// checkErr is the correctness verdict; err means the run itself broke.
func run(ctx context.Context, opt options) (res measure.Result, checkErr, err error) {
	var (
		st     *stack
		setups []setupTimes
	)
	defer func() {
		if st != nil {
			st.teardown()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		s, t, err := setUp(ctx, opt, rep)
		if err != nil {
			return res, nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, t)
		if rep < setupReps-1 {
			if err := s.teardown(); err != nil {
				return res, nil, fmt.Errorf("set-up %d teardown: %w", rep, err)
			}
			continue
		}
		st = s
	}

	if _, err := st.fleet.phase(ctx, warmup, energyPeriods, false); err != nil {
		return res, nil, fmt.Errorf("warm-up: %w", err)
	}
	window := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		window /= 2
	}
	plain, err := st.measuredPhase(ctx, window, false)
	if err != nil {
		return res, nil, err
	}
	var traced *phaseResult
	if opt.trace {
		if traced, err = st.measuredPhase(ctx, window, true); err != nil {
			return res, nil, err
		}
	}
	final, err := st.scrapeAll()
	if err != nil {
		return res, nil, err
	}
	rss, err := st.peakRSS()
	if err != nil {
		return res, nil, err
	}
	fleet, model := st.fleet, st.model
	if err := st.teardown(); err != nil {
		return res, nil, err
	}
	st = nil

	checkErr = checkCorrect(opt, fleet, model, final)
	m := &measure.Metrics{}
	if opt.trace {
		err = perLayer(opt, m, fleet, model, setups, plain, traced)
	} else {
		err = endToEnd(m, fleet, setups, plain, rss)
	}
	if err != nil {
		return res, nil, err
	}
	attempted, failed := plain.attempted, plain.failed+plain.retries
	if traced != nil {
		attempted += traced.attempted
		failed += traced.failed + traced.retries
	}
	res, err = measure.NewResult(checkErr == nil, attempted, failed, m)
	return res, checkErr, err
}
