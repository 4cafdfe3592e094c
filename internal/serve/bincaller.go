// BinCaller: single-attempt, caller-owned-scratch calls over a BinClient.
//
// BinSession owns a mirror and retries transparently — exactly what a
// device wants and exactly what a *router* must not do: the router
// forwards calls on behalf of remote devices whose clients already run the
// retry/resume machinery, so a middle tier that retried too would double
// the recovery logic and hide shard failures the device needs to see
// (an unknown-session answer is the handoff signal). BinCaller is the thin
// alternative: one frame out, one frame back, typed errors through
// binCodeErr, no mirror, no retries. All scratch lives in the caller, so a
// router can pool BinCallers and keep its forward path allocation-free.
package serve

import (
	"context"
	"slices"

	"rlpm/internal/wire"
)

// BinSessionInfo is the shard-side identity a create or resume minted.
type BinSessionInfo struct {
	Handle    uint64
	Epoch     uint32
	NumLevels []int // valid until the BinCaller's next Create/Resume
}

// BinCaller holds the encode/decode scratch for single-attempt calls. Not
// goroutine-safe — callers pool them (one per forwarding goroutine).
type BinCaller struct {
	wbuf      []byte
	dok       wire.DecideOK
	levels    []int
	numLevels []int
	wireObs   []wire.Obs
	unflushed []*muxConn // connections holding started, unflushed decides
}

// Create opens a session on c with no client-side mirror. One attempt.
func (b *BinCaller) Create(ctx context.Context, c *BinClient, opts SessionOptions) (BinSessionInfo, error) {
	mc, err := c.conn()
	if err != nil {
		return BinSessionInfo{}, err
	}
	reqID := mc.reqID.Add(1)
	b.wbuf = wire.FinishFrame(
		wire.AppendCreateReq(wire.BeginFrame(b.wbuf), opts.wireCreate()),
		wire.TCreate, reqID)
	return b.finishOpen(ctx, c, mc, reqID, wire.TCreateOK)
}

// Resume re-creates a session on c from mirror state. One attempt.
func (b *BinCaller) Resume(ctx context.Context, c *BinClient, st ResumeState) (BinSessionInfo, error) {
	mc, err := c.conn()
	if err != nil {
		return BinSessionInfo{}, err
	}
	reqID := mc.reqID.Add(1)
	rr := wire.ResumeReq{
		Opts:       st.Options.wireCreate(),
		EpsNow:     st.Epsilon,
		Seq:        st.Seq,
		Decisions:  st.Decisions,
		Rewards:    st.Rewards,
		RewardSum:  st.RewardSum,
		Rng:        st.Rng,
		PrevDemand: st.PrevDemand,
		LastLevels: st.LastLevels,
	}
	b.wbuf = wire.FinishFrame(
		wire.AppendResumeReq(wire.BeginFrame(b.wbuf), &rr), wire.TResume, reqID)
	return b.finishOpen(ctx, c, mc, reqID, wire.TResumeOK)
}

func (b *BinCaller) finishOpen(ctx context.Context, c *BinClient, mc *muxConn, reqID uint32, wantType byte) (BinSessionInfo, error) {
	call, _, err := c.call(ctx, mc, b.wbuf, reqID, wantType)
	if err != nil {
		return BinSessionInfo{}, err
	}
	var cok wire.CreateOK
	if err := wire.ParseCreateOK(call.buf, &cok); err != nil {
		putMuxCall(call)
		return BinSessionInfo{}, err
	}
	b.numLevels = append(b.numLevels[:0], cok.NumLevels...)
	putMuxCall(call)
	return BinSessionInfo{Handle: cok.Handle, Epoch: cok.Epoch, NumLevels: b.numLevels}, nil
}

// ObsToWire converts observations into the caller's wire scratch — the
// bridge for fronts (HTTP) that hold serve.Observation rather than raw
// wire frames. The result is valid until the next ObsToWire call.
func (b *BinCaller) ObsToWire(obs []Observation) []wire.Obs {
	if cap(b.wireObs) < len(obs) {
		b.wireObs = make([]wire.Obs, len(obs))
	}
	wobs := b.wireObs[:len(obs)]
	for i, o := range obs {
		wobs[i] = wire.Obs{
			Utilization: o.Utilization,
			DemandRatio: o.DemandRatio,
			QoS:         o.QoS,
			ClusterQoS:  o.ClusterQoS,
			Critical:    o.Critical,
			Level:       o.Level,
		}
	}
	return wobs
}

// PendingDecide is a decide forward in flight: started by StartDecide,
// answered by exactly one FinishDecide.
type PendingDecide struct {
	c     *BinClient
	mc    *muxConn
	call  *muxCall
	reqID uint32
}

// StartDecide encodes a decide frame (possibly multi-period) under the
// shard-side handle/epoch/seq and queues it on c's connection without
// flushing, so several forwards — to one shard or many — can be in flight
// at once: Flush sends everything queued, one syscall per connection, and
// FinishDecide collects each answer. A lone decide is start, flush,
// finish. On error nothing is pending.
func (b *BinCaller) StartDecide(c *BinClient, handle uint64, epoch uint32, seq uint64, wobs []wire.Obs) (PendingDecide, error) {
	mc, err := c.conn()
	if err != nil {
		return PendingDecide{}, err
	}
	reqID := mc.reqID.Add(1)
	b.wbuf = wire.FinishFrame(
		wire.AppendDecideReq(wire.BeginFrame(b.wbuf), handle, epoch, seq, wobs),
		wire.TDecide, reqID)
	call, err := c.send(mc, b.wbuf, reqID, false)
	if err != nil {
		return PendingDecide{}, err
	}
	if !slices.Contains(b.unflushed, mc) {
		b.unflushed = append(b.unflushed, mc)
	}
	return PendingDecide{c: c, mc: mc, call: call, reqID: reqID}, nil
}

// Flush sends the frames StartDecide queued, flushing each connection
// once. A failed flush poisons its connection, which fails the pending
// forwards on it: their FinishDecide reports the error.
func (b *BinCaller) Flush() {
	for i, mc := range b.unflushed {
		_ = mc.write(nil, true) // a failure is reported by FinishDecide
		b.unflushed[i] = nil
	}
	b.unflushed = b.unflushed[:0]
}

// FinishDecide waits for a started decide's answer, bounded by the
// client's per-call timeout and ctx. The returned slice is scratch, valid
// until the caller's next FinishDecide.
func (b *BinCaller) FinishDecide(ctx context.Context, p PendingDecide) ([]int, error) {
	if _, err := p.c.await(ctx, p.mc, p.call, p.reqID, wire.TDecideOK); err != nil {
		return nil, err
	}
	if err := wire.ParseDecideOK(p.call.buf, &b.dok); err != nil {
		putMuxCall(p.call)
		return nil, err
	}
	b.levels = append(b.levels[:0], b.dok.Levels...)
	putMuxCall(p.call)
	return b.levels, nil
}

// Reward forwards a reward report under the shard-side handle/epoch and
// the device's reward sequence number (0 = untagged legacy); Close
// forwards a session close. Both return the shard-side ledger.
func (b *BinCaller) Reward(ctx context.Context, c *BinClient, handle uint64, epoch uint32, seq uint64, reward float64) (wire.Stats, error) {
	return b.statsCall(ctx, c, wire.TReward, wire.TRewardOK, handle, epoch, seq, reward)
}

func (b *BinCaller) Close(ctx context.Context, c *BinClient, handle uint64) (wire.Stats, error) {
	return b.statsCall(ctx, c, wire.TClose, wire.TCloseOK, handle, 0, 0, 0)
}

func (b *BinCaller) statsCall(ctx context.Context, c *BinClient, typ, wantType byte, handle uint64, epoch uint32, seq uint64, reward float64) (wire.Stats, error) {
	mc, err := c.conn()
	if err != nil {
		return wire.Stats{}, err
	}
	reqID := mc.reqID.Add(1)
	buf := wire.BeginFrame(b.wbuf)
	if typ == wire.TReward {
		buf = wire.AppendRewardReq(buf, wire.RewardReq{
			Handle: handle, Reward: reward, Epoch: epoch, Seq: seq,
		})
	} else {
		buf = wire.AppendCloseReq(buf, wire.CloseReq{Handle: handle})
	}
	b.wbuf = wire.FinishFrame(buf, typ, reqID)
	call, _, err := c.call(ctx, mc, b.wbuf, reqID, wantType)
	if err != nil {
		return wire.Stats{}, err
	}
	var st wire.Stats
	if err := wire.ParseStats(call.buf, &st); err != nil {
		putMuxCall(call)
		return wire.Stats{}, err
	}
	putMuxCall(call)
	return st, nil
}

// Addr reports the client's dial address — used by fronts for error text.
func (c *BinClient) Addr() string { return c.addr }
