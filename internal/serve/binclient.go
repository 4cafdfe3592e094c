// Binary-protocol client: the wire-frame counterpart of Client. All
// sessions multiplex one persistent TCP connection — requests are tagged
// with a client-unique id, a single reader goroutine dispatches responses
// back to the waiting callers, and concurrent writers coalesce their
// flushes — so a fleet of device sessions shares warm buffers and amortizes
// syscalls instead of paying dial, handshake, or HTTP framing per decision.
//
// The client is self-healing: a transport failure fails every in-flight
// call fast with ErrConnLost, the next attempt redials, and each session
// retries with backoff under its sequence number so the server can
// deduplicate. When the server no longer knows the session — it was
// restarted, or reaped the session as idle — the session transparently
// re-creates itself from its mirror (TResume) and the caller never sees
// the gap.

package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/wire"
)

// BinClient talks the internal/wire protocol to a ServeBin listener. One
// shared connection carries every session (the wire protocol's request ids
// exist precisely for this); a transport failure fails all in-flight calls
// and the next call redials.
type BinClient struct {
	addr    string
	timeout time.Duration // per-call deadline
	pol     *retryPolicy

	mu     sync.Mutex
	mc     *muxConn
	closed bool

	dials atomic.Uint64 // connections established (first dial + redials)
}

// NewBinClient builds a client for a ServeBin address ("host:port").
func NewBinClient(addr string) *BinClient {
	return &BinClient{
		addr:    addr,
		timeout: 30 * time.Second,
		pol:     newRetryPolicy(uint64(time.Now().UnixNano())),
	}
}

// SetCallTimeout adjusts the per-attempt deadline (default 30s). Chaos
// tests shorten it so a stalled connection turns into a retry quickly.
func (c *BinClient) SetCallTimeout(d time.Duration) { c.timeout = d }

// SetRetryBudget adjusts the total retry window per logical call
// (default 30s). The budget must cover a server restart for transparent
// resume to engage.
func (c *BinClient) SetRetryBudget(d time.Duration) { c.pol.budget = d }

// BinClientStats is the transport-resilience ledger.
type BinClientStats struct {
	Dials   uint64 // connections established, including redials
	Retries uint64 // call attempts beyond the first
	Resumes uint64 // sessions re-created from their mirror
}

// TransportStats reports how hard the resilience machinery worked.
func (c *BinClient) TransportStats() BinClientStats {
	return BinClientStats{
		Dials:   c.dials.Load(),
		Retries: c.pol.retries.Load(),
		Resumes: c.pol.resumes.Load(),
	}
}

// Close tears down the shared connection; in-flight calls fail with the
// close error and later calls fail immediately.
func (c *BinClient) Close() {
	c.mu.Lock()
	mc := c.mc
	c.mc, c.closed = nil, true
	c.mu.Unlock()
	if mc != nil {
		mc.fail(errClientClosed)
	}
}

var errClientClosed = errors.New("serve: binary client closed")

// conn returns the live shared connection, dialing (or redialing after a
// failure) as needed.
func (c *BinClient) conn() (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.mc != nil && !c.mc.broken() {
		return c.mc, nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	mc := &muxConn{
		c:       conn,
		br:      bufio.NewReaderSize(conn, 64<<10),
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint32]*muxCall),
	}
	go mc.readLoop()
	c.mc = mc
	return mc, nil
}

// muxConn is the shared connection: a writer side coalescing concurrent
// frames into batched flushes and a reader goroutine dispatching response
// frames to pending calls by request id.
type muxConn struct {
	c     net.Conn
	br    *bufio.Reader
	reqID atomic.Uint32

	wmu   sync.Mutex // guards bw
	bw    *bufio.Writer
	wwait atomic.Int32 // writers queued behind wmu; last one out flushes

	pmu     sync.Mutex
	pending map[uint32]*muxCall
	err     error // first transport failure; poisons the connection
}

// muxCall is one in-flight request's rendezvous. Pooled: the response
// payload is copied into the call's own reusable buffer so the reader can
// move on to the next frame while the caller decodes.
type muxCall struct {
	ch    chan muxResp
	buf   []byte
	timer *time.Timer
}

type muxResp struct {
	hdr wire.Header
	err error
}

var muxCallPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return &muxCall{ch: make(chan muxResp, 1), timer: t}
}}

func (mc *muxConn) broken() bool {
	mc.pmu.Lock()
	defer mc.pmu.Unlock()
	return mc.err != nil
}

// fail poisons the connection and delivers err to every pending call —
// nothing waits out its full timeout once the transport is known dead.
// Transport errors are wrapped with ErrConnLost so callers (and the retry
// loop) see one typed signal regardless of the underlying failure;
// a deliberate client Close keeps its own sentinel.
func (mc *muxConn) fail(err error) {
	if !errors.Is(err, errClientClosed) && !errors.Is(err, ErrConnLost) {
		err = fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	mc.pmu.Lock()
	if mc.err == nil {
		mc.err = err
	} else {
		err = mc.err
	}
	pend := mc.pending
	mc.pending = nil
	mc.pmu.Unlock()
	mc.c.Close()
	for _, call := range pend {
		call.ch <- muxResp{err: err}
	}
}

// readLoop is the connection's single reader: every response frame is
// matched to its pending call by the echoed request id; frames for
// abandoned calls (timeout, cancelled context) are dropped. A read error
// — disconnect, corrupt frame — kills the whole connection: with one
// byte stream there is no way to resynchronize past a bad frame.
func (mc *muxConn) readLoop() {
	var hdr [wire.HeaderSize]byte
	var payload []byte
	for {
		h, p, err := wire.ReadFrame(mc.br, &hdr, payload)
		payload = p
		if err != nil {
			mc.fail(err)
			return
		}
		mc.pmu.Lock()
		call := mc.pending[h.ReqID]
		delete(mc.pending, h.ReqID)
		mc.pmu.Unlock()
		if call == nil {
			continue
		}
		call.buf = append(call.buf[:0], p...)
		call.ch <- muxResp{hdr: h}
	}
}

// call writes the frame in wbuf (its request id must be reqID), flushes,
// and waits for the matching response: send, then await. On success the
// payload sits in the returned muxCall's buf; the caller must release it
// with putMuxCall after decoding.
func (c *BinClient) call(ctx context.Context, mc *muxConn, wbuf []byte, reqID uint32, wantType byte) (*muxCall, wire.Header, error) {
	call, err := c.send(mc, wbuf, reqID, true)
	if err != nil {
		return nil, wire.Header{}, err
	}
	h, err := c.await(ctx, mc, call, reqID, wantType)
	if err != nil {
		return nil, h, err
	}
	return call, h, nil
}

// send registers reqID as pending on mc and writes the frame in wbuf (its
// request id must be reqID) into the connection's buffer. With flush set
// the buffer goes out now unless another writer is queued to send it;
// without, the frame waits for a later flush (mc.write(nil, true)), so a
// window of forwards leaves in one syscall. The returned call must be
// passed to await exactly once.
func (c *BinClient) send(mc *muxConn, wbuf []byte, reqID uint32, flush bool) (*muxCall, error) {
	call := muxCallPool.Get().(*muxCall)

	mc.pmu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.pmu.Unlock()
		muxCallPool.Put(call)
		return nil, err
	}
	mc.pending[reqID] = call
	mc.pmu.Unlock()

	if err := mc.write(wbuf, flush); err != nil {
		return nil, c.reap(mc, call, reqID, err)
	}
	return call, nil
}

// write appends wbuf to the connection's buffer and, with flush set,
// flushes it. Last writer out flushes: while another writer is queued
// behind the lock the buffered bytes ride its (or a later) flush, so
// back-to-back requests from many sessions coalesce into one syscall. A
// failed write poisons the connection.
func (mc *muxConn) write(wbuf []byte, flush bool) error {
	mc.wwait.Add(1)
	mc.wmu.Lock()
	mc.wwait.Add(-1)
	_, err := mc.bw.Write(wbuf)
	if err == nil && flush && mc.wwait.Load() == 0 {
		err = mc.bw.Flush()
	}
	mc.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("%w: write: %v", ErrConnLost, err)
		mc.fail(err)
	}
	return err
}

// await waits for the response to a sent call: the per-call timer bounds
// it, as does ctx. On success the payload sits in call.buf and the caller
// must release the call with putMuxCall after decoding; on failure the
// call is already released.
func (c *BinClient) await(ctx context.Context, mc *muxConn, call *muxCall, reqID uint32, wantType byte) (wire.Header, error) {
	call.timer.Reset(c.timeout)
	var r muxResp
	select {
	case r = <-call.ch:
		stopTimer(call.timer)
	case <-call.timer.C:
		return wire.Header{}, c.reap(mc, call, reqID, fmt.Errorf("%w: no response after %v", ErrCallTimeout, c.timeout))
	case <-ctx.Done():
		stopTimer(call.timer)
		return wire.Header{}, c.reap(mc, call, reqID, ctx.Err())
	}
	if r.err != nil {
		muxCallPool.Put(call)
		return wire.Header{}, r.err
	}
	h := r.hdr
	if h.Type == wire.TError {
		var ef wire.ErrorFrame
		err := wire.ParseError(call.buf, &ef)
		if err == nil {
			err = binCodeErr(ef.Code, ef.BackoffMs, string(ef.Msg))
		}
		putMuxCall(call)
		return h, err
	}
	if h.Type != wantType {
		putMuxCall(call)
		return h, fmt.Errorf("serve: response type %d, want %d", h.Type, wantType)
	}
	return h, nil
}

// reap abandons a call that will get no usable response: its pending entry
// is removed so a late frame is dropped, and the call is only repooled if
// the reader has not already claimed it (claimed means a send to call.ch is
// in flight or delivered — drain it before reuse).
func (c *BinClient) reap(mc *muxConn, call *muxCall, reqID uint32, err error) error {
	mc.pmu.Lock()
	_, pendingStill := mc.pending[reqID]
	delete(mc.pending, reqID)
	mc.pmu.Unlock()
	if pendingStill {
		putMuxCall(call)
		return err
	}
	// The reader (or fail) already took the call: wait for its send so the
	// channel is empty, then repool.
	<-call.ch
	putMuxCall(call)
	return err
}

func putMuxCall(call *muxCall) { muxCallPool.Put(call) }

// stopTimer stops t and drains a concurrent fire, leaving it ready for the
// next Reset (the pre-Go-1.23 timer idiom; only the owning call goroutine
// ever receives from t.C outside the call select).
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// binCodeErr maps a wire error code back onto the serve-layer sentinels so
// callers can errors.Is against the same values on both protocols. A
// backoff hint rides along as a BackoffError wrapper.
func binCodeErr(code uint16, backoffMs uint32, msg string) error {
	var base error
	switch code {
	case wire.CodeNoSession:
		base = ErrNoSession
	case wire.CodeUnknownSession:
		base = ErrUnknownSession
	case wire.CodeSessionClosed:
		base = ErrSessionClosed
	case wire.CodeServerClosed:
		base = ErrServerClosed
	case wire.CodeOverloaded:
		base = ErrOverloaded
	case wire.CodeBadRequest:
		base = ErrBadRequest
	default:
		return fmt.Errorf("serve: remote error %d: %s", code, msg)
	}
	err := fmt.Errorf("%w: %s", base, msg)
	if backoffMs > 0 {
		return &BackoffError{Err: err, RetryAfter: time.Duration(backoffMs) * time.Millisecond}
	}
	return err
}

// BinSession is a device session resolved over the binary protocol — the
// wire counterpart of RemoteSession. Sessions are not individually
// goroutine-safe (each owns encode/decode scratch), matching RemoteSession's
// one-goroutine-per-device usage; different sessions share the connection
// freely.
type BinSession struct {
	c      *BinClient
	Handle uint64
	Epoch  uint32 // server incarnation that minted Handle
	ID     string // human-readable form of the handle, for reports
	Levels []int  // per-cluster OPP counts

	mirror  *sessionMirror // nil: no retry dedup or resume (bare sessions)
	closed  bool
	wbuf    []byte
	wireObs []wire.Obs
	dok     wire.DecideOK
}

// OpenSession creates a session over the binary protocol. The session
// carries a mirror of the server-side state, so its calls retry safely
// across connection losses and survive server restarts via resume.
func (c *BinClient) OpenSession(ctx context.Context, opts SessionOptions) (*BinSession, error) {
	s := &BinSession{c: c}
	open := func() error {
		mc, err := c.conn()
		if err != nil {
			return err
		}
		reqID := mc.reqID.Add(1)
		s.wbuf = wire.FinishFrame(
			wire.AppendCreateReq(wire.BeginFrame(s.wbuf), opts.wireCreate()),
			wire.TCreate, reqID)
		call, _, err := c.call(ctx, mc, s.wbuf, reqID, wire.TCreateOK)
		if err != nil {
			return err
		}
		var cok wire.CreateOK
		if err := wire.ParseCreateOK(call.buf, &cok); err != nil {
			putMuxCall(call)
			return err
		}
		putMuxCall(call)
		s.Handle, s.Epoch = cok.Handle, cok.Epoch
		s.ID = fmt.Sprintf("h-%06d", cok.Handle)
		s.Levels = append([]int(nil), cok.NumLevels...)
		return nil
	}
	if err := open(); err != nil {
		// Retrying a lost create may leave an orphan session on the server;
		// the TTL reaper exists exactly to collect those.
		if !retryableErr(err) {
			return nil, err
		}
		if err = runRetries(ctx, c.pol, err, open, nil); err != nil {
			return nil, err
		}
	}
	s.mirror = newSessionMirror(opts, s.Levels)
	return s, nil
}

// runRetries is runWithRetry entered after a first failed attempt: err is
// classified, then op retried under the policy.
func runRetries(ctx ctxDone, pol *retryPolicy, err error, op func() error, onLost func() error) error {
	deadline := time.Now().Add(pol.budget)
	resumeStreak := 0
	for attempt := 0; ; attempt++ {
		var hint time.Duration
		var be *BackoffError
		if errors.As(err, &be) {
			hint = be.RetryAfter
		}
		switch {
		case onLost != nil && errors.Is(err, ErrNoSession):
			// Unknown or reaped session: re-create it from the mirror,
			// then retry the call against the fresh identity.
			resumeStreak++
			if resumeStreak > maxResumeStreak {
				return err
			}
			if rerr := onLost(); rerr != nil && !retryableErr(rerr) {
				return rerr
			}
		case retryableErr(err):
			resumeStreak = 0
		default:
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !time.Now().Before(deadline) {
			return err
		}
		pol.retries.Add(1)
		if serr := pol.sleep(ctx, attempt, hint); serr != nil {
			return serr
		}
		if err = op(); err == nil {
			return nil
		}
	}
}

// resume re-creates the session on the current server incarnation from
// the mirror, then adopts the fresh handle/epoch. The sequence number and
// RNG stream continue exactly where the lost session stopped.
func (s *BinSession) resume(ctx context.Context) error {
	st := s.mirror.resumeState()
	mc, err := s.c.conn()
	if err != nil {
		return err
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
	s.wbuf = wire.FinishFrame(
		wire.AppendResumeReq(wire.BeginFrame(s.wbuf), &rr), wire.TResume, reqID)
	call, _, err := s.c.call(ctx, mc, s.wbuf, reqID, wire.TResumeOK)
	if err != nil {
		return err
	}
	var cok wire.CreateOK
	if err := wire.ParseCreateOK(call.buf, &cok); err != nil {
		putMuxCall(call)
		return err
	}
	putMuxCall(call)
	s.Handle, s.Epoch = cok.Handle, cok.Epoch
	s.ID = fmt.Sprintf("h-%06d", cok.Handle)
	s.c.pol.resumes.Add(1)
	return nil
}

// onLost returns the resume hook for the retry loop, or nil for bare
// sessions (no mirror — nothing to resume from).
func (s *BinSession) onLost(ctx context.Context) func() error {
	if s.mirror == nil {
		return nil
	}
	return func() error { return s.resume(ctx) }
}

// NumClusters returns the served chip's cluster count.
func (s *BinSession) NumClusters() int { return len(s.Levels) }

// Decide resolves one control period over the wire. The returned slice is
// freshly allocated; the session's encode/decode scratch is reused.
//
// With a mirror, the request carries the session epoch and the next
// sequence number: retries after a lost connection deduplicate on the
// server, and a decide that outlives the server itself resumes the
// session and replays against the new incarnation — by construction both
// yield the byte-identical decision. The fast path stays closure-free;
// the retry loop is only entered after a failure.
func (s *BinSession) Decide(ctx context.Context, obs []Observation) ([]int, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	var seq uint64
	if s.mirror != nil {
		seq = s.mirror.nextSeq()
	}
	levels, err := s.decideOnce(ctx, obs, seq)
	if err != nil {
		op := func() error {
			lv, e := s.decideOnce(ctx, obs, seq)
			if e == nil {
				levels = lv
			}
			return e
		}
		err = runRetries(ctx, s.c.pol, err, op, s.onLost(ctx))
	}
	if err != nil {
		return nil, err
	}
	if s.mirror != nil {
		s.mirror.ackDecide(obs, levels)
	}
	return levels, nil
}

// DecideMany resolves K consecutive control periods in one frame: obs
// carries K×clusters observations, period by period, and the returned
// slice carries K×clusters levels in the same order. The server computes
// the periods exactly as K sequential Decide calls would — byte-identical
// decisions — while the frame parse, session lookup, dedup bookkeeping,
// and syscalls amortize over K. Retry, dedup, and resume semantics match
// Decide: the frame is acknowledged (and the mirror advanced K periods)
// atomically, so a retried frame can never half-apply.
func (s *BinSession) DecideMany(ctx context.Context, obs []Observation) ([]int, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if k := len(s.Levels); len(obs) == 0 || len(obs)%k != 0 {
		return nil, fmt.Errorf("serve: %d observations for %d clusters", len(obs), k)
	}
	var seq uint64
	if s.mirror != nil {
		seq = s.mirror.nextSeq()
	}
	levels, err := s.decideOnce(ctx, obs, seq)
	if err != nil {
		op := func() error {
			lv, e := s.decideOnce(ctx, obs, seq)
			if e == nil {
				levels = lv
			}
			return e
		}
		err = runRetries(ctx, s.c.pol, err, op, s.onLost(ctx))
	}
	if err != nil {
		return nil, err
	}
	if s.mirror != nil {
		s.mirror.ackDecide(obs, levels)
	}
	return levels, nil
}

// decideOnce performs one decide attempt against the current session
// identity (rebuilt per attempt — handle and epoch change across resume).
func (s *BinSession) decideOnce(ctx context.Context, obs []Observation, seq uint64) ([]int, error) {
	mc, err := s.c.conn()
	if err != nil {
		return nil, err
	}
	if cap(s.wireObs) < len(obs) {
		s.wireObs = make([]wire.Obs, len(obs))
	}
	wobs := s.wireObs[:len(obs)]
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
	reqID := mc.reqID.Add(1)
	s.wbuf = wire.FinishFrame(
		wire.AppendDecideReq(wire.BeginFrame(s.wbuf), s.Handle, s.Epoch, seq, wobs),
		wire.TDecide, reqID)
	call, _, err := s.c.call(ctx, mc, s.wbuf, reqID, wire.TDecideOK)
	if err != nil {
		return nil, err
	}
	if err := wire.ParseDecideOK(call.buf, &s.dok); err != nil {
		putMuxCall(call)
		return nil, err
	}
	levels := append([]int(nil), s.dok.Levels...)
	putMuxCall(call)
	return levels, nil
}

// Reward reports a device-computed reward. With a mirror the frame
// carries the session epoch and the next reward sequence number, so a
// retry after a lost ack deduplicates server-side — the ledger counts it
// once and a learning server applies its Q-updates once.
func (s *BinSession) Reward(ctx context.Context, r float64) (SessionStats, error) {
	var seq uint64
	if s.mirror != nil {
		seq = s.mirror.nextRewardSeq()
	}
	st, err := s.statsCall(ctx, wire.TReward, wire.TRewardOK, r, seq)
	if err == nil && s.mirror != nil {
		s.mirror.ackReward(r)
	}
	return st, err
}

// Close ends the session, returning its final ledger. After a successful
// close the session is dead client-side: no further call will resume it.
func (s *BinSession) Close(ctx context.Context) (SessionStats, error) {
	st, err := s.statsCall(ctx, wire.TClose, wire.TCloseOK, 0, 0)
	if err == nil {
		s.closed = true
		s.mirror = nil
	}
	return st, err
}

func (s *BinSession) statsCall(ctx context.Context, typ, wantType byte, reward float64, rewardSeq uint64) (SessionStats, error) {
	if s.closed {
		return SessionStats{}, ErrSessionClosed
	}
	var st wire.Stats
	once := func() error {
		mc, err := s.c.conn()
		if err != nil {
			return err
		}
		reqID := mc.reqID.Add(1)
		buf := wire.BeginFrame(s.wbuf)
		if typ == wire.TReward {
			var epoch uint32
			if s.mirror != nil {
				epoch = s.Epoch // read per attempt: a resume mints a fresh epoch
			}
			buf = wire.AppendRewardReq(buf, wire.RewardReq{
				Handle: s.Handle, Reward: reward, Epoch: epoch, Seq: rewardSeq,
			})
		} else {
			buf = wire.AppendCloseReq(buf, wire.CloseReq{Handle: s.Handle})
		}
		s.wbuf = wire.FinishFrame(buf, typ, reqID)
		call, _, err := s.c.call(ctx, mc, s.wbuf, reqID, wantType)
		if err != nil {
			return err
		}
		if err := wire.ParseStats(call.buf, &st); err != nil {
			putMuxCall(call)
			return err
		}
		putMuxCall(call)
		return nil
	}
	err := once()
	if err != nil {
		err = runRetries(ctx, s.c.pol, err, once, s.onLost(ctx))
	}
	if err != nil {
		return SessionStats{}, err
	}
	return SessionStats{
		ID:         s.ID,
		Decisions:  st.Decisions,
		Rewards:    st.Rewards,
		MeanReward: st.MeanReward,
		Epsilon:    st.Epsilon,
	}, nil
}
