package shard

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

// routedSession is one session opened through the router: its device-
// visible handle and the shard that holds it.
type routedSession struct {
	handle uint64
	shard  string
}

// openRouted opens sessions with the given options through the router's
// core (no device connection), reporting where each landed.
func openRouted(t *testing.T, r *Router, opts ...serve.SessionOptions) []routedSession {
	t.Helper()
	c := &serve.BinCaller{}
	out := make([]routedSession, len(opts))
	for i, o := range opts {
		info, err := r.CreateSession(context.Background(), c, o)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		r.mu.Lock()
		s := r.sessions[info.Handle]
		r.mu.Unlock()
		out[i] = routedSession{handle: info.Handle, shard: s.shard.spec.Name}
	}
	return out
}

// twoShardSeeds returns two device seeds the router places on different
// shards.
func twoShardSeeds(t *testing.T, r *Router) (uint64, uint64) {
	t.Helper()
	first, _ := r.ring.Owner(serve.DeviceSeed(9, 0))
	for d := 1; d < 64; d++ {
		if o, _ := r.ring.Owner(serve.DeviceSeed(9, d)); o != first {
			return serve.DeviceSeed(9, 0), serve.DeviceSeed(9, d)
		}
	}
	t.Fatal("no seed lands on a second shard")
	return 0, 0
}

func decideFrame(handle uint64, epoch uint32, seq uint64, obs []wire.Obs, reqID uint32) []byte {
	return wire.FinishFrame(wire.AppendDecideReq(wire.BeginFrame(nil), handle, epoch, seq, obs), wire.TDecide, reqID)
}

// windowObs is a distinct valid observation frame per index, so frames of
// one window are not interchangeable.
func windowObs(clusters, i int) []wire.Obs {
	obs := make([]wire.Obs, clusters)
	for c := range obs {
		obs[c] = wire.Obs{Utilization: 0.1 + 0.07*float64((i+c)%12), DemandRatio: 0.3 + 0.05*float64(i%9), QoS: 1, ClusterQoS: 1, Level: (i + c) % 3}
	}
	return obs
}

// pipeFront serves one device connection of the router's binary front
// over net.Pipe: the client's single write arrives as one read, so the
// front sees every frame of it buffered — a deterministic window.
func pipeFront(t *testing.T, r *Router) net.Conn {
	t.Helper()
	cli, srv := net.Pipe()
	r.binWG.Add(1)
	go r.serveBinConn(srv)
	t.Cleanup(func() { cli.Close() })
	cli.SetDeadline(time.Now().Add(10 * time.Second))
	return cli
}

// respFrame is one response frame read back from the front.
type respFrame struct {
	h       wire.Header
	payload []byte
}

func readResponses(t *testing.T, rd io.Reader, n int) []respFrame {
	t.Helper()
	var hdr [wire.HeaderSize]byte
	out := make([]respFrame, n)
	for i := range out {
		h, p, err := wire.ReadFrame(rd, &hdr, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		out[i] = respFrame{h: h, payload: p}
	}
	return out
}

func errCode(t *testing.T, f respFrame) uint16 {
	t.Helper()
	var ef wire.ErrorFrame
	if f.h.Type != wire.TError || wire.ParseError(f.payload, &ef) != nil {
		t.Fatalf("req %d: type %d, want a TError frame", f.h.ReqID, f.h.Type)
	}
	return ef.Code
}

// fleetDecisions sums the decisions every shard of the fleet served.
func fleetDecisions(f *Fleet) uint64 {
	var n uint64
	for _, sp := range f.Specs() {
		n += f.Server(sp.Name).MetricsSnapshot().Decisions
	}
	return n
}

// TestRouterWindowOrdering: one write carries decides for sessions on both
// shards, an unknown handle and a foreign epoch, with two frames for one
// session. Every frame is answered in request order with its id echoed,
// and the levels are byte-identical to twin sessions' answers to the same
// frames sent one at a time.
func TestRouterWindowOrdering(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 2, 13)
	seedA, seedB := twoShardSeeds(t, router)
	opts := func(seed uint64) serve.SessionOptions {
		return serve.SessionOptions{Epsilon: 0.4, EpsilonMin: 0.05, EpsilonDecay: 0.97, Seed: seed}
	}
	rs := openRouted(t, router, opts(seedA), opts(seedB), opts(seedA), opts(seedB))
	a, b, twinA, twinB := rs[0], rs[1], rs[2], rs[3]
	if a.shard == b.shard || twinA.shard != a.shard || twinB.shard != b.shard {
		t.Fatalf("placement: a on %s, b on %s, twins on %s/%s", a.shard, b.shard, twinA.shard, twinB.shard)
	}
	ep := router.Epoch()
	n := model.Clusters()

	// The window, and the same decides as the twins will send them.
	type frame struct {
		handle, twin uint64
		epoch        uint32
		seq          uint64
		wantCode     uint16 // 0: TDecideOK
	}
	frames := []frame{
		{handle: a.handle, twin: twinA.handle, epoch: ep, seq: 1},
		{handle: b.handle, twin: twinB.handle, epoch: ep, seq: 1},
		{handle: 1 << 40, epoch: ep, wantCode: wire.CodeUnknownSession},
		{handle: a.handle, epoch: ep + 1, seq: 2, wantCode: wire.CodeUnknownSession},
		{handle: a.handle, twin: twinA.handle, epoch: ep, seq: 2},
		{handle: b.handle, twin: twinB.handle, epoch: ep, seq: 2},
		{handle: a.handle, twin: twinA.handle, epoch: ep, seq: 3},
	}
	var req []byte
	for i, f := range frames {
		req = append(req, decideFrame(f.handle, f.epoch, f.seq, windowObs(n, i), uint32(500+i))...)
	}
	windows0, frames0 := router.decideWindows.Load(), router.decideFrames.Load()
	cli := pipeFront(t, router)
	if _, err := cli.Write(req); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := readResponses(t, cli, len(frames))
	if w := router.decideWindows.Load() - windows0; w != 1 {
		t.Fatalf("one pipelined write took %d windows, want 1", w)
	}
	if fw := router.decideFrames.Load() - frames0; fw != 5 {
		t.Fatalf("%d frames forwarded, want 5", fw)
	}

	// The oracle: the twins' frames one write, one answer at a time, over
	// a real connection to the same front.
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	for i, f := range frames {
		if got[i].h.ReqID != uint32(500+i) {
			t.Fatalf("response %d echoes req %d, want %d", i, got[i].h.ReqID, 500+i)
		}
		if f.wantCode != 0 {
			if code := errCode(t, got[i]); code != f.wantCode {
				t.Fatalf("response %d: code %d, want %d", i, code, f.wantCode)
			}
			continue
		}
		if got[i].h.Type != wire.TDecideOK {
			t.Fatalf("response %d: type %d, want TDecideOK", i, got[i].h.Type)
		}
		if _, err := conn.Write(decideFrame(f.twin, f.epoch, f.seq, windowObs(n, i), uint32(i))); err != nil {
			t.Fatalf("twin write %d: %v", i, err)
		}
		want := readResponses(t, conn, 1)[0]
		if want.h.Type != wire.TDecideOK || !bytes.Equal(got[i].payload, want.payload) {
			t.Fatalf("frame %d: windowed answer %x, one-at-a-time answer %x (type %d)", i, got[i].payload, want.payload, want.h.Type)
		}
	}
}

// TestRouterWindowPoisonedFrame: a malformed decide in mid-window is
// answered in order with CodeBadRequest, nothing behind it reaches a
// shard, and the connection closes.
func TestRouterWindowPoisonedFrame(t *testing.T) {
	model := testModel(t, 6, 4)
	fleet, router, addr := testFleetRouter(t, model, 2, 13)
	seedA, seedB := twoShardSeeds(t, router)
	rs := openRouted(t, router, serve.SessionOptions{Seed: seedA}, serve.SessionOptions{Seed: seedB})
	ep, n := router.Epoch(), model.Clusters()

	// A well-framed decide whose payload is five bytes of garbage.
	bad := wire.FinishFrame(append(wire.BeginFrame(nil), 1, 2, 3, 4, 5), wire.TDecide, 2)
	var req []byte
	req = append(req, decideFrame(rs[0].handle, ep, 1, windowObs(n, 0), 1)...)
	req = append(req, bad...)
	req = append(req, decideFrame(rs[1].handle, ep, 1, windowObs(n, 1), 3)...)
	req = append(req, decideFrame(rs[0].handle, ep, 2, windowObs(n, 2), 4)...)

	decided0 := fleetDecisions(fleet)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(req); err != nil {
		t.Fatalf("write: %v", err)
	}
	br := bufio.NewReader(conn)
	got := readResponses(t, br, 2)
	if got[0].h.Type != wire.TDecideOK || got[0].h.ReqID != 1 {
		t.Fatalf("first response: type %d req %d, want TDecideOK req 1", got[0].h.Type, got[0].h.ReqID)
	}
	if code := errCode(t, got[1]); code != wire.CodeBadRequest || got[1].h.ReqID != 2 {
		t.Fatalf("poisoned frame answered with code %d req %d, want CodeBadRequest req 2", code, got[1].h.ReqID)
	}
	var one [1]byte
	if _, err := br.Read(one[:]); err != io.EOF {
		t.Fatalf("after the poisoned frame: read returned %v, want EOF", err)
	}
	if d := fleetDecisions(fleet) - decided0; d != 1 {
		t.Fatalf("shards served %d decisions, want 1: frames behind the poisoned one were forwarded", d)
	}
}

// TestRouterWindowEndsAtReward: a reward frame behind decides ends the
// window and is answered in order after them.
func TestRouterWindowEndsAtReward(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, _ := testFleetRouter(t, model, 2, 13)
	seedA, seedB := twoShardSeeds(t, router)
	rs := openRouted(t, router, serve.SessionOptions{Seed: seedA}, serve.SessionOptions{Seed: seedB})
	ep, n := router.Epoch(), model.Clusters()

	var req []byte
	req = append(req, decideFrame(rs[0].handle, ep, 1, windowObs(n, 0), 1)...)
	req = append(req, decideFrame(rs[1].handle, ep, 1, windowObs(n, 1), 2)...)
	req = append(req, wire.FinishFrame(wire.AppendRewardReq(wire.BeginFrame(nil),
		wire.RewardReq{Handle: rs[0].handle, Reward: -0.5, Epoch: ep, Seq: 1}), wire.TReward, 3)...)
	req = append(req, decideFrame(rs[1].handle, ep, 2, windowObs(n, 2), 4)...)

	windows0 := router.decideWindows.Load()
	cli := pipeFront(t, router)
	if _, err := cli.Write(req); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := readResponses(t, cli, 4)
	for i, want := range []byte{wire.TDecideOK, wire.TDecideOK, wire.TRewardOK, wire.TDecideOK} {
		if got[i].h.Type != want || got[i].h.ReqID != uint32(i+1) {
			t.Fatalf("response %d: type %d req %d, want type %d req %d", i, got[i].h.Type, got[i].h.ReqID, want, i+1)
		}
	}
	var st wire.Stats
	if err := wire.ParseStats(got[2].payload, &st); err != nil || st.Decisions != 1 || st.Rewards != 1 {
		t.Fatalf("reward ledger %+v (%v), want 1 decision and 1 reward", st, err)
	}
	if w := router.decideWindows.Load() - windows0; w != 2 {
		t.Fatalf("%d decide windows, want 2: the reward must end the first", w)
	}
}

// TestRouterWindowAllocFree pins the router's steady-state decide forward
// at zero allocations per frame, alone and in a pipelined 3-frame window
// spanning both shards, over a raw TCP connection to the front. The count
// covers the whole process: front, shard clients and both shards.
func TestRouterWindowAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 2, 13)
	seedA, seedB := twoShardSeeds(t, router)
	rs := openRouted(t, router, serve.SessionOptions{Seed: seedA}, serve.SessionOptions{Seed: seedB},
		serve.SessionOptions{Seed: seedA + 1})
	ep, n := router.Epoch(), model.Clusters()

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	br := bufio.NewReader(conn)
	hdr := new([wire.HeaderSize]byte)
	var payload []byte

	for _, tc := range []struct {
		name   string
		frames int
	}{{"lone", 1}, {"window", 3}} {
		var req []byte
		for i := 0; i < tc.frames; i++ { // seq 0: untagged, so resendable
			req = append(req, decideFrame(rs[i].handle, ep, 0, windowObs(n, i), uint32(i+1))...)
		}
		roundTrip := func() {
			if _, err := conn.Write(req); err != nil {
				t.Fatalf("%s: write: %v", tc.name, err)
			}
			for i := 0; i < tc.frames; i++ {
				var h wire.Header
				h, payload, err = wire.ReadFrame(br, hdr, payload)
				if err != nil || h.Type != wire.TDecideOK || h.ReqID != uint32(i+1) {
					t.Fatalf("%s: response %d: type %d req %d err %v", tc.name, i, h.Type, h.ReqID, err)
				}
			}
		}
		for i := 0; i < 50; i++ { // warm every scratch, pool and map
			roundTrip()
		}
		windows0, frames0 := router.decideWindows.Load(), router.decideFrames.Load()
		if a := testing.AllocsPerRun(200, roundTrip); a != 0 {
			t.Fatalf("%s: %v allocations per %d-frame round trip, want 0", tc.name, a, tc.frames)
		}
		if tc.frames > 1 && router.decideWindows.Load()-windows0 >= router.decideFrames.Load()-frames0 {
			t.Fatalf("%s: no window carried more than one frame", tc.name)
		}
	}
}

// TestRouterWindowConcurrentConnections: several device connections, each
// pipelining decides for several sessions at once, share the router's
// shard connections — windows from different fronts interleave their
// unflushed starts on one shard client. Every session's decisions must
// still match a direct session's.
func TestRouterWindowConcurrentConnections(t *testing.T) {
	const conns, perConn, steps = 4, 4, 30
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 2, 17)
	direct, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer direct.Close()
	opts := func(c, s int) serve.SessionOptions {
		return serve.SessionOptions{Epsilon: 0.3, EpsilonMin: 0.05, EpsilonDecay: 0.98, Seed: serve.DeviceSeed(uint64(c+1), s)}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		bc := serve.NewBinClient(addr)
		defer bc.Close()
		for s := 0; s < perConn; s++ {
			sess, err := bc.OpenSession(ctx, opts(c, s))
			if err != nil {
				t.Fatalf("open %d/%d: %v", c, s, err)
			}
			osess, err := direct.CreateSession(opts(c, s))
			if err != nil {
				t.Fatalf("oracle session %d/%d: %v", c, s, err)
			}
			wg.Add(1)
			go func(c, s int) {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					obs := testObs(model)
					obs[0].Utilization = 0.05 * float64((i+s)%20)
					got, err := sess.Decide(ctx, obs)
					if err != nil {
						t.Errorf("decide %d/%d/%d: %v", c, s, i, err)
						return
					}
					want, err := osess.Decide(obs)
					if err != nil || !equalSeq(got, want) {
						t.Errorf("session %d/%d step %d: routed %v, direct %v (%v)", c, s, i, got, want, err)
						return
					}
				}
			}(c, s)
		}
	}
	wg.Wait()
	if f, w := router.decideFrames.Load(), router.decideWindows.Load(); f != conns*perConn*steps || w > f {
		t.Fatalf("%d frames in %d windows, want %d frames", f, w, conns*perConn*steps)
	}
}
