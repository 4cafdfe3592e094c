//go:build rlpmbench

package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"perfbench/measure"
	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

// The replay legs time single layers in process on the frames the traced
// window recorded, once the serving processes have stopped.

// minReplay is the least wall time a timed replay loop runs for; short
// recordings are replayed several times over.
const minReplay = 200 * time.Millisecond

// passes repeats body over the recording until minReplay has elapsed
// (at most 50 passes) and returns the passes made and their total time.
func passes(body func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for n < 50 && (n == 0 || time.Since(start) < minReplay) {
		body()
		n++
	}
	return n, time.Since(start)
}

type wireStats struct {
	reqBytes, respBytes float64
	encodeNs, parseNs   float64
}

// wireReplay encodes every recorded frame the way the binary client does
// (observations to wire form, AppendDecideReq, FinishFrame), then parses
// the encoded frames the way the listener does (ReadFrame,
// ParseDecideReq), timing each loop.
func wireReplay(recs []recFrame) (wireStats, error) {
	if len(recs) == 0 {
		return wireStats{}, fmt.Errorf("no recorded frames to replay")
	}
	var ws wireStats
	frames := make([][]byte, len(recs))
	var wobs []wire.Obs
	var buf []byte
	encode := func() {
		for i, r := range recs {
			wobs = wobs[:0]
			for _, o := range r.obs {
				wobs = append(wobs, wire.Obs{Utilization: o.Utilization, DemandRatio: o.DemandRatio,
					QoS: o.QoS, ClusterQoS: o.ClusterQoS, Critical: o.Critical, Level: o.Level})
			}
			buf = wire.FinishFrame(wire.AppendDecideReq(wire.BeginFrame(buf), 1, 1, uint64(i+1), wobs), wire.TDecide, uint32(i))
			if frames[i] == nil {
				frames[i] = append([]byte(nil), buf...)
			}
		}
	}
	n, d := passes(encode)
	ws.encodeNs = float64(d.Nanoseconds()) / float64(n*len(recs))

	var hdr [wire.HeaderSize]byte
	var payload []byte
	var req wire.DecideReq
	rd := bytes.NewReader(nil)
	var parseErr error
	parse := func() {
		for _, f := range frames {
			rd.Reset(f)
			var err error
			if _, payload, err = wire.ReadFrame(rd, &hdr, payload); err == nil {
				err = wire.ParseDecideReq(payload, &req)
			}
			if err != nil && parseErr == nil {
				parseErr = err
			}
		}
	}
	n, d = passes(parse)
	ws.parseNs = float64(d.Nanoseconds()) / float64(n*len(recs))
	if parseErr != nil {
		return ws, fmt.Errorf("wire replay: a frame the codec encoded does not parse back: %w", parseErr)
	}

	var req0, resp0 float64
	for i, r := range recs {
		req0 += float64(len(frames[i]))
		buf = wire.FinishFrame(wire.AppendDecideOK(wire.BeginFrame(buf), r.levels), wire.TDecideOK, 0)
		resp0 += float64(len(buf))
	}
	ws.reqBytes, ws.respBytes = req0/float64(len(recs)), resp0/float64(len(recs))
	return ws, nil
}

// timedBackend wraps the software backend to time the decision kernel.
// The server calls Decide from its one batch worker; the totals are read
// after the server has closed.
type timedBackend struct {
	sw          *serve.SWBackend
	ns, lookups atomic.Int64
}

func (b *timedBackend) Name() string { return "sw" }

func (b *timedBackend) Decide(l []serve.Lookup, out []int) error {
	t0 := time.Now()
	err := b.sw.Decide(l, out)
	b.ns.Add(time.Since(t0).Nanoseconds())
	b.lookups.Add(int64(len(l)))
	return err
}

type sessionStats struct {
	decideNs float64 // median Session.DecideInto per frame
	lookupNs float64 // kernel time per lookup
}

// sessionReplay decides every recorded frame through an in-process
// Session of a frozen server whose backend is the timed kernel.
func sessionReplay(model *serve.Model, wl workload, seed uint64, recs []recFrame) (sessionStats, error) {
	if len(recs) == 0 {
		return sessionStats{}, fmt.Errorf("no recorded frames to replay")
	}
	tb := &timedBackend{sw: serve.NewSWBackend(model)}
	srv, err := serve.New(model, tb, serve.Config{})
	if err != nil {
		return sessionStats{}, err
	}
	sessions := make(map[int]*serve.Session)
	levels := make([]int, len(recs[0].obs))
	var ns []float64
	var replayErr error
	_, _ = passes(func() {
		for _, r := range recs {
			s, ok := sessions[r.dev]
			if !ok {
				if s, replayErr = srv.CreateSession(serve.SessionOptions{Epsilon: wl.epsilon, Seed: serve.DeviceSeed(seed, r.dev)}); replayErr != nil {
					return
				}
				sessions[r.dev] = s
			}
			t0 := time.Now()
			if replayErr = s.DecideInto(r.obs, levels); replayErr != nil {
				return
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		}
	})
	srv.Close()
	if replayErr != nil {
		return sessionStats{}, fmt.Errorf("session replay: %w", replayErr)
	}
	sort.Float64s(ns)
	p50, err := measure.Percentile(ns, 50)
	if err != nil {
		return sessionStats{}, err
	}
	return sessionStats{decideNs: p50, lookupNs: ratio(float64(tb.ns.Load()), float64(tb.lookups.Load()))}, nil
}

// learnTickEvery is how many replayed frames pass between learner ticks.
const learnTickEvery = 64

// learnReplay replays the recorded frames and rewards through a learning
// server in manual mode and times Server.LearnTick per applied update.
func learnReplay(model *serve.Model, seed uint64, recs []recFrame) (float64, error) {
	srv, err := serve.New(model, nil, serve.Config{Learn: serve.LearnConfig{Enabled: true, Manual: true, Seed: seed}})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	sessions := make(map[int]*serve.Session)
	levels := make([]int, len(recs[0].obs))
	var tickNs time.Duration
	var updates int
	tick := func() {
		t0 := time.Now()
		updates += srv.LearnTick()
		tickNs += time.Since(t0)
	}
	for i, r := range recs {
		s, ok := sessions[r.dev]
		if !ok {
			if s, err = srv.CreateSession(serve.SessionOptions{Epsilon: 0.2, Seed: serve.DeviceSeed(seed, r.dev)}); err != nil {
				return 0, err
			}
			sessions[r.dev] = s
		}
		if err := s.DecideInto(r.obs, levels); err != nil {
			return 0, fmt.Errorf("learn replay: %w", err)
		}
		if r.rewarded {
			if _, err := s.Reward(r.reward); err != nil {
				return 0, fmt.Errorf("learn replay: %w", err)
			}
		}
		if (i+1)%learnTickEvery == 0 {
			tick()
		}
	}
	tick()
	if updates == 0 {
		return 0, fmt.Errorf("learn replay applied no updates")
	}
	return float64(tickNs.Nanoseconds()) / float64(updates), nil
}

// writeSpans dumps the traced window's spans, one per line as
// frame,kind,start_ns,end_ns, gzip-compressed, into the work directory.
func writeSpans(opt options, spans []measure.Span) error {
	path := filepath.Join(opt.workdir, fmt.Sprintf("spans-%s.csv.gz", opt.wl.name))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	kinds := [numKinds]string{"frame", "device.apply", "client.decide", "client.reward"}
	fmt.Fprintln(bw, "frame,kind,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d\n", s.Frame, kinds[s.Kind], s.Start, s.End)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
