// Binary front: the router's wire-v2 listener. One goroutine per device
// connection, one BinCaller per connection as forwarding scratch, frames
// answered strictly in order (devices pipeline; responses must not
// reorder past the frames that produced them). Decides travel in windows,
// the way a shard serves them: every complete decide frame already
// buffered is started on its shard's connection, each connection is
// flushed once, and the answers return in request order in one flush —
// so a pipelining device keeps several forwards in flight instead of
// paying a full shard round trip per frame. Error frames carry the
// same codes and backoff hints a shard itself would send — including the
// shard's own overload hint, which BinCaller surfaces as a BackoffError
// and the front re-encodes unchanged — so a device cannot tell a router
// from a shard.
package shard

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"time"

	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

// ServeBin accepts binary-protocol device connections on ln until the
// listener fails or the router closes. It blocks; run it in a goroutine.
func (r *Router) ServeBin(ln net.Listener) error {
	r.binMu.Lock()
	if r.binDown.Load() {
		r.binMu.Unlock()
		ln.Close()
		return serve.ErrServerClosed
	}
	r.binLns[ln] = struct{}{}
	r.binMu.Unlock()
	defer func() {
		r.binMu.Lock()
		delete(r.binLns, ln)
		r.binMu.Unlock()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if r.binDown.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		r.binMu.Lock()
		if r.binDown.Load() {
			r.binMu.Unlock()
			conn.Close()
			return nil
		}
		r.binConns[conn] = struct{}{}
		r.binWG.Add(1)
		r.binMu.Unlock()
		go r.serveBinConn(conn)
	}
}

// routerConnState is one device connection's reusable working set.
type routerConnState struct {
	br      *bufio.Reader
	bw      *bufio.Writer
	hdr     [wire.HeaderSize]byte
	payload []byte
	wbuf    []byte
	dreq    wire.DecideReq
	creq    wire.CreateReq
	rreq    wire.RewardReq
	clreq   wire.CloseReq
	rsreq   wire.ResumeReq
	caller  serve.BinCaller
	win     []routerFwd // decide window, one entry per gathered frame
}

// routerFwd is one decide frame of a forwarding window: started on its
// shard (err nil), or already failed and answered with err.
type routerFwd struct {
	reqID uint32
	p     serve.PendingDecide
	err   error
}

func (r *Router) serveBinConn(conn net.Conn) {
	defer func() {
		r.binMu.Lock()
		delete(r.binConns, conn)
		r.binMu.Unlock()
		conn.Close()
		r.binWG.Done()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	st := &routerConnState{
		br: bufio.NewReaderSize(conn, 64<<10),
		bw: bufio.NewWriterSize(conn, 64<<10),
	}
	for {
		h, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			if !errors.Is(err, io.EOF) {
				st.wbuf = wire.FinishFrame(
					wire.AppendError(wire.BeginFrame(st.wbuf), wire.CodeBadRequest, 0, err.Error()),
					wire.TError, h.ReqID)
				st.bw.Write(st.wbuf)
				st.bw.Flush()
				routerGracefulClose(conn, st.br)
			}
			return
		}
		keep := r.handleBinFrame(st, h)
		// Every answer waited out a shard round trip: send it now rather
		// than holding it behind the next frame's.
		if err := st.bw.Flush(); err != nil {
			return
		}
		if !keep {
			routerGracefulClose(conn, st.br)
			return
		}
	}
}

// routerGracefulClose mirrors the shard server's teardown: half-close and
// drain so the final error frame lands as data + EOF, not a reset.
func routerGracefulClose(conn net.Conn, br *bufio.Reader) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, io.LimitReader(br, 1<<20))
}

// binFrontError appends a TError frame for err, carrying the shard's
// backoff hint when the failure was an overload shed, and reports whether
// the connection survives (wire-level decode failures poison framing).
func (r *Router) binFrontError(st *routerConnState, reqID uint32, err error) bool {
	var backoffMs uint32
	var be *serve.BackoffError
	if errors.As(err, &be) {
		backoffMs = uint32(be.RetryAfter / time.Millisecond)
	}
	st.wbuf = wire.FinishFrame(
		wire.AppendError(wire.BeginFrame(st.wbuf), serve.WireCode(err), backoffMs, err.Error()),
		wire.TError, reqID)
	st.bw.Write(st.wbuf)
	return routerKeeps(err)
}

// routerKeeps reports whether the connection survives a failed frame:
// session-level failures keep it, a malformed request poisons framing.
func routerKeeps(err error) bool {
	return serve.WireCode(err) != wire.CodeBadRequest ||
		!(errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrBadPayload) || errors.Is(err, wire.ErrBadType))
}

// handleBinFrame forwards one request frame — or, for a decide, the
// window it opens — appending exactly one response frame per request
// frame, and reports whether the connection stays open. Forwards need no
// context deadline: the shard client's per-call timer enforces
// CallTimeout.
func (r *Router) handleBinFrame(st *routerConnState, h wire.Header) bool {
	ctx := context.Background()
	switch h.Type {
	case wire.TDecide:
		return r.forwardDecideWindow(st, h)
	case wire.TCreate:
		if err := wire.ParseCreateReq(st.payload, &st.creq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		info, err := r.CreateSession(ctx, &st.caller, serve.OptionsFromWire(st.creq))
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), info.Handle, info.Epoch, info.NumLevels),
			wire.TCreateOK, h.ReqID)
	case wire.TResume:
		if err := wire.ParseResumeReq(st.payload, &st.rsreq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		info, err := r.ResumeSession(ctx, &st.caller, serve.ResumeState{
			Options:    serve.OptionsFromWire(st.rsreq.Opts),
			Epsilon:    st.rsreq.EpsNow,
			Rng:        st.rsreq.Rng,
			Seq:        st.rsreq.Seq,
			LastLevels: st.rsreq.LastLevels,
			PrevDemand: st.rsreq.PrevDemand,
			Decisions:  st.rsreq.Decisions,
			Rewards:    st.rsreq.Rewards,
			RewardSum:  st.rsreq.RewardSum,
		})
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), info.Handle, info.Epoch, info.NumLevels),
			wire.TResumeOK, h.ReqID)
	case wire.TReward:
		if err := wire.ParseRewardReq(st.payload, &st.rreq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		stats, err := r.Reward(ctx, &st.caller, st.rreq.Handle, st.rreq.Epoch, st.rreq.Seq, st.rreq.Reward)
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendStats(wire.BeginFrame(st.wbuf), stats),
			wire.TRewardOK, h.ReqID)
	case wire.TClose:
		if err := wire.ParseCloseReq(st.payload, &st.clreq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		stats, err := r.CloseSession(ctx, &st.caller, st.clreq.Handle)
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendStats(wire.BeginFrame(st.wbuf), stats),
			wire.TCloseOK, h.ReqID)
	default:
		r.binFrontError(st, h.ReqID, wire.ErrBadType)
		return false
	}
	st.bw.Write(st.wbuf)
	return true
}

// forwardDecideWindow forwards the decide frame in hand plus every complete
// decide frame already buffered behind it, up to serve.MaxWindowFrames,
// never blocking mid-window. Each frame is resolved and started on its
// owning shard's connection unflushed; then every shard connection is
// flushed once and the answers are collected and encoded in request order.
// Frames of one session share one shard connection, which the shard serves
// in order, so they stay ordered. A non-decide frame ends the window; a
// malformed or corrupt frame ends it too, is answered in order, and closes
// the connection with nothing behind it forwarded.
func (r *Router) forwardDecideWindow(st *routerConnState, h wire.Header) bool {
	r.decideWindows.Add(1)
	st.win = st.win[:0]
	keep := r.startForward(st, h.ReqID)
	for keep && len(st.win) < serve.MaxWindowFrames {
		if _, ok := wire.BufferedDecide(st.br); !ok {
			break
		}
		gh, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			// The whole frame was buffered, so this is corruption, not
			// truncation: answer it in order and hang up.
			st.win = append(st.win, routerFwd{reqID: gh.ReqID, err: err})
			keep = false
			break
		}
		keep = r.startForward(st, gh.ReqID)
	}
	st.caller.Flush()
	ctx := context.Background()
	for i := range st.win {
		f := &st.win[i]
		if f.err == nil {
			levels, err := r.finishDecide(ctx, &st.caller, f.p)
			if err == nil {
				st.wbuf = wire.FinishFrame(
					wire.AppendDecideOK(wire.BeginFrame(st.wbuf), levels),
					wire.TDecideOK, f.reqID)
				st.bw.Write(st.wbuf)
				continue
			}
			f.err = err
		}
		if !r.binFrontError(st, f.reqID, f.err) {
			keep = false
		}
	}
	return keep
}

// startForward parses the decide frame in st.payload, resolves its session
// and starts its forward, appending the frame to the window. It reports
// whether the gather may go on: false once the frame poisoned the stream.
func (r *Router) startForward(st *routerConnState, reqID uint32) bool {
	f := routerFwd{reqID: reqID}
	if f.err = wire.ParseDecideReq(st.payload, &st.dreq); f.err == nil {
		var s *routerSession
		if s, f.err = r.lookupHandle(st.dreq.Handle, st.dreq.Epoch); f.err == nil {
			f.p, f.err = r.startDecide(&st.caller, s, st.dreq.Seq, st.dreq.Obs)
		}
	}
	st.win = append(st.win, f)
	return f.err == nil || routerKeeps(f.err)
}
