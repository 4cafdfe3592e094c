// Binary-protocol server: persistent multiplexed TCP connections speaking
// internal/wire frames against the same sessions the HTTP handlers serve.
//
// Each connection is one goroutine owning all of its scratch — read/write
// buffers, decoded request structs, the wire→serve observation conversion —
// so a warmed connection serves decide frames with zero allocations: frame
// read reuses the payload scratch, decode reuses the request's backing
// arrays, Session.DecideInto works entirely in session-owned scratch, and
// the response is appended into the reused write buffer. Responses echo the
// request id, so a client may pipeline requests for many sessions over one
// connection; writes are flushed only when no further request is already
// buffered, batching response syscalls under pipelining.

package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"rlpm/internal/wire"
)

// ServeBin accepts binary-protocol connections on ln until the listener
// fails or the server closes. It blocks; run it in its own goroutine. The
// listener is closed (and every live connection torn down) by Server.Close.
func (s *Server) ServeBin(ln net.Listener) error {
	s.binMu.Lock()
	s.binLns[ln] = struct{}{}
	s.binMu.Unlock()
	defer func() {
		s.binMu.Lock()
		delete(s.binLns, ln)
		s.binMu.Unlock()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.trackBinConn(conn) {
			conn.Close()
			return nil
		}
		s.binConnsTotal.Add(1)
		go s.serveBinConn(conn)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// trackBinConn registers a live connection for teardown at Close; it
// reports false when the server already closed (the connection must not be
// served — Close's sweep may already have run).
func (s *Server) trackBinConn(c net.Conn) bool {
	if s.isClosed() {
		return false
	}
	s.binMu.Lock()
	s.binConns[c] = struct{}{}
	s.binMu.Unlock()
	if s.isClosed() { // raced Close's sweep: tear down ourselves
		s.binMu.Lock()
		delete(s.binConns, c)
		s.binMu.Unlock()
		return false
	}
	return true
}

// binConnState is one connection's reusable working set.
type binConnState struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	hdr     [wire.HeaderSize]byte
	payload []byte // frame payload scratch, regrown by ReadFrame
	wbuf    []byte // response frame scratch
	dreq    wire.DecideReq
	creq    wire.CreateReq
	rreq    wire.RewardReq
	clreq   wire.CloseReq
	rsreq   wire.ResumeReq
	obs     []Observation // wire.Obs → serve.Observation conversion
	levels  []int         // DecideInto output
	win     binWindow     // decide-window working set
}

func (s *Server) serveBinConn(conn net.Conn) {
	defer func() {
		s.binMu.Lock()
		delete(s.binConns, conn)
		s.binMu.Unlock()
		conn.Close()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over throughput: decide frames are tiny
	}
	st := &binConnState{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	for {
		h, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			// A read-deadline timeout during drain is the drain nudge, not
			// a protocol failure: everything already answered has been
			// flushed (the per-frame flush below runs before the next
			// read), and a partially received frame was never accepted —
			// its client retries against the next incarnation. Close
			// cleanly so in-flight responses land.
			if s.isDraining() && isTimeout(err) {
				st.bw.Flush()
				gracefulClose(conn, st.br)
				return
			}
			// A clean EOF between frames is the client hanging up. Anything
			// else — truncation, CRC, version, oversized prefix — poisons
			// the stream's framing: answer with a best-effort error frame
			// and drop the connection rather than misparse what follows.
			if !errors.Is(err, io.EOF) {
				s.binErrors.Add(1)
				st.wbuf = wire.FinishFrame(
					wire.AppendError(wire.BeginFrame(st.wbuf), wire.CodeBadRequest, 0, err.Error()),
					wire.TError, h.ReqID)
				st.bw.Write(st.wbuf)
				st.bw.Flush()
				gracefulClose(conn, st.br)
			}
			return
		}
		var keep bool
		if h.Type == wire.TDecide {
			// Decide frames route through the window path: pipelined decide
			// frames already buffered behind this one are gathered into a
			// single shared backend batch and answered with one vectored
			// write. A lone frame falls through to the plain path inside.
			keep = s.serveBinDecideWindow(st, h)
		} else {
			keep = s.handleBinFrame(st, h)
		}
		// Flush once the buffered input is exhausted: under pipelining many
		// responses ride one syscall, while a lone request is answered
		// immediately.
		if st.br.Buffered() == 0 || !keep {
			if err := st.bw.Flush(); err != nil {
				return
			}
		}
		if !keep {
			gracefulClose(conn, st.br)
			return
		}
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// gracefulClose half-closes the write side and briefly drains unread input
// so the just-written error frame reaches the peer as data + EOF instead
// of being torn down by a reset (closing a socket with unread bytes sends
// RST, which can discard in-flight responses).
func gracefulClose(conn net.Conn, br *bufio.Reader) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, io.LimitReader(br, 1<<20))
}

// wireCohorts numbers the cohorts for the binary protocol's create and
// resume cohort byte: the index is the byte. 0 is the default arm, which
// is also what a legacy cohort-less payload parses as.
var wireCohorts = [...]string{"", CohortLearning, CohortFrozen}

// wireCreate is o's binary-protocol form: the create payload, and the
// options half of a resume. A cohort name the server would reject encodes
// to a byte it rejects too.
func (o SessionOptions) wireCreate() wire.CreateReq {
	cohort := uint8(0xFF)
	for i, name := range wireCohorts {
		if o.Cohort == name {
			cohort = uint8(i)
		}
	}
	return wire.CreateReq{
		Epsilon:      o.Epsilon,
		EpsilonMin:   o.EpsilonMin,
		EpsilonDecay: o.EpsilonDecay,
		Seed:         o.Seed,
		Cohort:       cohort,
	}
}

// OptionsFromWire decodes a binary create (or a resume's options) into
// SessionOptions — the inverse of what BinClient and BinCaller encode. An
// unassigned cohort byte decodes to a cohort name validation rejects.
func OptionsFromWire(r wire.CreateReq) SessionOptions {
	o := SessionOptions{
		Epsilon:      r.Epsilon,
		EpsilonMin:   r.EpsilonMin,
		EpsilonDecay: r.EpsilonDecay,
		Seed:         r.Seed,
	}
	if int(r.Cohort) < len(wireCohorts) {
		o.Cohort = wireCohorts[r.Cohort]
	} else {
		o.Cohort = fmt.Sprintf("wire cohort %d", r.Cohort)
	}
	return o
}

// handleBinFrame serves one request frame, appending exactly one response
// frame to st.bw. It reports whether the connection should stay open.
func (s *Server) handleBinFrame(st *binConnState, h wire.Header) bool {
	s.binFrames.Add(1)
	switch h.Type {
	case wire.TDecide:
		return s.handleBinDecide(st, h)
	case wire.TCreate:
		if err := wire.ParseCreateReq(st.payload, &st.creq); err != nil {
			return s.binError(st, h.ReqID, err)
		}
		sess, err := s.CreateSession(OptionsFromWire(st.creq))
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), sess.Handle(), s.cfg.Epoch, s.model.levels),
			wire.TCreateOK, h.ReqID)
	case wire.TResume:
		if err := wire.ParseResumeReq(st.payload, &st.rsreq); err != nil {
			return s.binError(st, h.ReqID, err)
		}
		sess, err := s.ResumeSession(ResumeState{
			Options:    OptionsFromWire(st.rsreq.Opts),
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
			return s.binError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), sess.Handle(), s.cfg.Epoch, s.model.levels),
			wire.TResumeOK, h.ReqID)
	case wire.TReward:
		if err := wire.ParseRewardReq(st.payload, &st.rreq); err != nil {
			return s.binError(st, h.ReqID, err)
		}
		sess, err := s.SessionByHandleEpoch(st.rreq.Handle, st.rreq.Epoch)
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		stats, err := sess.RewardSeq(st.rreq.Seq, st.rreq.Reward)
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendStats(wire.BeginFrame(st.wbuf), statsToWire(stats)),
			wire.TRewardOK, h.ReqID)
	case wire.TClose:
		if err := wire.ParseCloseReq(st.payload, &st.clreq); err != nil {
			return s.binError(st, h.ReqID, err)
		}
		stats, err := s.CloseSessionByHandle(st.clreq.Handle)
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendStats(wire.BeginFrame(st.wbuf), statsToWire(stats)),
			wire.TCloseOK, h.ReqID)
	default:
		// A response type on the request stream is a protocol violation;
		// answer and hang up.
		s.binError(st, h.ReqID, wire.ErrBadType)
		return false
	}
	st.bw.Write(st.wbuf)
	return true
}

// handleBinDecide is the hot path: decode, decide into scratch, encode.
// Allocation-free once the connection and session scratches are warm.
func (s *Server) handleBinDecide(st *binConnState, h wire.Header) bool {
	t0 := time.Now()
	if err := wire.ParseDecideReq(st.payload, &st.dreq); err != nil {
		return s.binError(st, h.ReqID, err)
	}
	n := len(st.dreq.Obs)
	if cap(st.obs) < n {
		st.obs = make([]Observation, n)
	}
	if cap(st.levels) < n {
		st.levels = make([]int, n)
	}
	obs, levels := st.obs[:n], st.levels[:n]
	for i := range obs {
		w := &st.dreq.Obs[i]
		obs[i] = Observation{
			Utilization: w.Utilization,
			DemandRatio: w.DemandRatio,
			QoS:         w.QoS,
			ClusterQoS:  w.ClusterQoS,
			Critical:    w.Critical,
			Level:       w.Level,
		}
	}
	sess, err := s.SessionByHandleEpoch(st.dreq.Handle, st.dreq.Epoch)
	if err != nil {
		return s.binError(st, h.ReqID, err)
	}
	decoded := time.Now()
	s.histBinDecode.Observe(decoded.Sub(t0).Nanoseconds())
	if _, err := sess.DecideSeq(st.dreq.Seq, obs, levels); err != nil {
		return s.binError(st, h.ReqID, err)
	}
	encodeStart := time.Now()
	st.wbuf = wire.FinishFrame(
		wire.AppendDecideOK(wire.BeginFrame(st.wbuf), levels),
		wire.TDecideOK, h.ReqID)
	st.bw.Write(st.wbuf)
	now := time.Now()
	s.histBinWrite.Observe(now.Sub(encodeStart).Nanoseconds())
	s.histBin.Observe(now.Sub(t0).Nanoseconds())
	return true
}

// maxWindowFrames bounds the decide frames one window gathers: enough to
// fill a healthy batch under pipelining, small enough that one slow frame
// never delays a connection's responses unboundedly.
const maxWindowFrames = 64

// binTxn is one decide frame of a connection window: its identity, its
// slice of the combined lookup batch, and how it resolved.
type binTxn struct {
	reqID   uint32
	t0      time.Time
	sess    *Session // non-nil while the decide transaction is open
	levels  []int    // per-frame decision output (window-owned scratch)
	lookOff int      // this frame's offset into the combined lookups
	lookLen int
	ok      bool // answered with TDecideOK (fresh or replayed)
	keep    bool // connection survives this frame's outcome
}

// binWindow is a connection's reusable decide-window working set: the
// open transactions, the combined exploit-lookup batch they share, and
// one response buffer per frame so the answers leave in a single
// writev-style net.Buffers flush.
type binWindow struct {
	txns       []binTxn
	wbufs      [][]byte // response frame per txn, index-aligned, reused
	frameLvls  [][]int  // levels scratch per txn, index-aligned, reused
	lookups    []Lookup // combined exploit lookups of all open txns
	out        []int    // combined batch results
	bufs       net.Buffers
	obsTotal   int  // observations admitted, for the batch budget
	closeAfter bool // a frame poisoned the stream: answer, then hang up
}

func (w *binWindow) reset() {
	w.txns = w.txns[:0]
	w.lookups = w.lookups[:0]
	w.obsTotal = 0
	w.closeAfter = false
}

// slot returns the next txn index, growing the index-aligned scratch.
func (w *binWindow) slot() int {
	i := len(w.txns)
	for len(w.wbufs) <= i {
		w.wbufs = append(w.wbufs, nil)
	}
	for len(w.frameLvls) <= i {
		w.frameLvls = append(w.frameLvls, nil)
	}
	return i
}

// txnState is beginBinTxn's outcome for one decide frame.
type txnState int

const (
	txnOpen     txnState = iota // transaction open, session lock held
	txnAnswered                 // response already encoded (replay or error)
	txnHeld                     // session lock unavailable: frame held back
)

// serveBinDecideWindow serves the decide frame in hand plus every complete
// decide frame already buffered behind it (the pipelining window): all
// their transactions open under their session locks, their exploit lookups
// resolve through ONE shared batch dispatch — cross-session coalescing the
// per-frame path structurally cannot reach, because each frame's
// batch.Do blocks the connection goroutine before the next frame is even
// parsed — and the responses leave in one vectored net.Buffers flush.
// It reports whether the connection stays open.
func (s *Server) serveBinDecideWindow(st *binConnState, h wire.Header) bool {
	s.binFrames.Add(1)
	if st.br.Buffered() < wire.HeaderSize {
		// Nothing pipelined behind this frame: the plain path is cheaper.
		return s.handleBinDecide(st, h)
	}
	w := &st.win
	w.reset()
	s.beginBinTxn(st, h, true) // first frame locks blockingly: never held

	// Gather phase: consume further decide frames only when the complete
	// frame is already buffered (never block mid-window) and its count fits
	// the batch budget. A frame whose session lock is contended is held
	// back — the stream stays ordered, so it must wait for this window's
	// responses anyway — and served by the plain blocking path after.
	var heldH wire.Header
	held := false
	for !w.closeAfter && len(w.txns) < maxWindowFrames && st.peekGatherable(s.cfg.MaxBatch, w.obsTotal) {
		gh, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		s.binFrames.Add(1)
		if err != nil {
			// The peek said a full frame was buffered, so this is corruption,
			// not truncation: answer in order and poison the stream.
			s.binErrors.Add(1)
			i := w.slot()
			w.wbufs[i] = wire.FinishFrame(
				wire.AppendError(wire.BeginFrame(w.wbufs[i]), wire.CodeBadRequest, 0, err.Error()),
				wire.TError, gh.ReqID)
			w.txns = append(w.txns, binTxn{reqID: gh.ReqID, keep: false})
			w.closeAfter = true
			break
		}
		if s.beginBinTxn(st, gh, false) == txnHeld {
			heldH, held = gh, true
			break
		}
	}

	// Resolve every open transaction's exploit lookups in one shared batch.
	var batchErr error
	if len(w.lookups) > 0 {
		if cap(w.out) < len(w.lookups) {
			w.out = make([]int, len(w.lookups))
		}
		batchErr = s.batch.Do(w.lookups, w.out[:len(w.lookups)])
	}
	for i := range w.txns {
		tx := &w.txns[i]
		if tx.sess == nil {
			continue // answered at begin (replay or error)
		}
		if batchErr != nil {
			tx.sess.decideAbortLocked()
			tx.sess.mu.Unlock()
			s.binErrors.Add(1)
			var backoffMs uint32
			if errors.Is(batchErr, ErrOverloaded) {
				backoffMs = s.batch.backoffHintMs()
			}
			w.wbufs[i] = wire.FinishFrame(
				wire.AppendError(wire.BeginFrame(w.wbufs[i]), binErrCode(batchErr), backoffMs, batchErr.Error()),
				wire.TError, tx.reqID)
			tx.keep = binErrCode(batchErr) != wire.CodeBadRequest || !isWireErr(batchErr)
			continue
		}
		for j := 0; j < tx.lookLen; j++ {
			tx.levels[tx.sess.lookupsIdx[j]] = w.out[tx.lookOff+j]
		}
		tx.sess.decideFinishLocked(tx.levels)
		tx.sess.mu.Unlock()
		w.wbufs[i] = wire.FinishFrame(
			wire.AppendDecideOK(wire.BeginFrame(w.wbufs[i]), tx.levels),
			wire.TDecideOK, tx.reqID)
		tx.ok = true
	}

	// Vectored flush: every response of the window in one writev-style
	// call, in frame order. Anything older already buffered in bw goes
	// first so the stream stays ordered.
	if err := st.bw.Flush(); err != nil {
		return false
	}
	w.bufs = w.bufs[:0]
	for i := range w.txns {
		w.bufs = append(w.bufs, w.wbufs[i])
	}
	wstart := time.Now()
	if _, err := w.bufs.WriteTo(st.conn); err != nil {
		return false
	}
	now := time.Now()
	span := now.Sub(wstart).Nanoseconds()
	keep := !w.closeAfter
	for i := range w.txns {
		tx := &w.txns[i]
		if tx.ok {
			s.histBinWrite.Observe(span)
			s.histBin.Observe(now.Sub(tx.t0).Nanoseconds())
		}
		if !tx.keep {
			keep = false
		}
	}
	if !keep {
		return false
	}
	if held {
		return s.handleBinDecide(st, heldH)
	}
	return true
}

// beginBinTxn decodes the decide frame in st.payload and opens its
// transaction: parse, convert, session lookup, validation, then
// decideBeginLocked under the session lock (blocking for the window's
// first frame, try-lock after — a second frame for a session already in
// the window must not deadlock the gather). Replays and failures are
// answered immediately into the frame's window buffer; an open
// transaction contributes its exploit lookups to the combined batch and
// keeps the session lock until the window scatters and finishes it.
func (s *Server) beginBinTxn(st *binConnState, h wire.Header, first bool) txnState {
	w := &st.win
	slot := w.slot()
	tx := binTxn{reqID: h.ReqID, t0: time.Now(), keep: true}
	fail := func(err error) txnState {
		s.binErrors.Add(1)
		var backoffMs uint32
		if errors.Is(err, ErrOverloaded) {
			backoffMs = s.batch.backoffHintMs()
		}
		w.wbufs[slot] = wire.FinishFrame(
			wire.AppendError(wire.BeginFrame(w.wbufs[slot]), binErrCode(err), backoffMs, err.Error()),
			wire.TError, h.ReqID)
		tx.keep = binErrCode(err) != wire.CodeBadRequest || !isWireErr(err)
		if !tx.keep {
			w.closeAfter = true
		}
		w.txns = append(w.txns, tx)
		return txnAnswered
	}
	if err := wire.ParseDecideReq(st.payload, &st.dreq); err != nil {
		return fail(err)
	}
	n := len(st.dreq.Obs)
	if cap(st.obs) < n {
		st.obs = make([]Observation, n)
	}
	obs := st.obs[:n]
	for i := range obs {
		wo := &st.dreq.Obs[i]
		obs[i] = Observation{
			Utilization: wo.Utilization,
			DemandRatio: wo.DemandRatio,
			QoS:         wo.QoS,
			ClusterQoS:  wo.ClusterQoS,
			Critical:    wo.Critical,
			Level:       wo.Level,
		}
	}
	sess, err := s.SessionByHandleEpoch(st.dreq.Handle, st.dreq.Epoch)
	if err != nil {
		return fail(err)
	}
	if cap(w.frameLvls[slot]) < n {
		w.frameLvls[slot] = make([]int, n)
	}
	lv := w.frameLvls[slot][:n]
	if err := s.model.decideValidate(obs, lv); err != nil {
		return fail(err)
	}
	if first {
		sess.mu.Lock()
	} else if !sess.mu.TryLock() {
		return txnHeld
	}
	replayed, err := sess.decideBeginLocked(st.dreq.Seq, obs, lv)
	s.histBinDecode.Observe(time.Since(tx.t0).Nanoseconds())
	if err != nil {
		sess.mu.Unlock()
		return fail(err)
	}
	if replayed {
		sess.mu.Unlock()
		w.wbufs[slot] = wire.FinishFrame(
			wire.AppendDecideOK(wire.BeginFrame(w.wbufs[slot]), lv),
			wire.TDecideOK, h.ReqID)
		tx.ok = true
		w.txns = append(w.txns, tx)
		return txnAnswered
	}
	tx.sess = sess
	tx.levels = lv
	tx.lookOff = len(w.lookups)
	tx.lookLen = len(sess.lookups)
	w.lookups = append(w.lookups, sess.lookups...)
	w.obsTotal += n
	w.txns = append(w.txns, tx)
	return txnOpen
}

// peekGatherable reports whether the connection's next buffered frame is a
// complete decide frame whose observation count fits the window's batch
// budget — without consuming a byte or ever blocking. An incomplete frame,
// a different type, or a count that would overflow the budget closes the
// gather; the frame stays buffered for the main loop or the next window.
func (st *binConnState) peekGatherable(maxBatch, obsTotal int) bool {
	if st.br.Buffered() < wire.HeaderSize {
		return false
	}
	hdr, err := st.br.Peek(wire.HeaderSize)
	if err != nil {
		return false
	}
	if hdr[1] != wire.TDecide {
		return false
	}
	plen := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if plen > wire.MaxPayload {
		// ReadFrame rejects the oversized prefix from the header alone, so
		// gathering it cannot block; the window answers and hangs up.
		return true
	}
	if st.br.Buffered() < wire.HeaderSize+plen+wire.TrailerSize {
		return false
	}
	if plen >= 22 { // count u16 sits at payload offset 20
		pk, err := st.br.Peek(wire.HeaderSize + 22)
		if err != nil {
			return false
		}
		if n := int(binary.LittleEndian.Uint16(pk[wire.HeaderSize+20:])); obsTotal+n > maxBatch {
			return false
		}
	}
	return true
}

// binError appends a TError frame for err and reports whether the
// connection survives: session-level failures keep it open, wire decode
// failures (a malformed but well-framed request) close it. Overload
// errors carry the batcher's adaptive backoff hint so shed clients space
// their retries to the queue's actual drain rate.
func (s *Server) binError(st *binConnState, reqID uint32, err error) bool {
	s.binErrors.Add(1)
	var backoffMs uint32
	if errors.Is(err, ErrOverloaded) {
		backoffMs = s.batch.backoffHintMs()
	}
	st.wbuf = wire.FinishFrame(
		wire.AppendError(wire.BeginFrame(st.wbuf), binErrCode(err), backoffMs, err.Error()),
		wire.TError, reqID)
	st.bw.Write(st.wbuf)
	return binErrCode(err) != wire.CodeBadRequest || !isWireErr(err)
}

func isWireErr(err error) bool {
	return errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrBadPayload) || errors.Is(err, wire.ErrBadType)
}

// binErrCode maps serve-layer errors onto wire error codes, mirroring the
// HTTP status mapping in writeError.
// WireCode maps a serve-layer error onto its binary-protocol error code —
// exported so front tiers (the shard router) answering on the wire speak
// the same codes a shard itself would.
func WireCode(err error) uint16 { return binErrCode(err) }

func binErrCode(err error) uint16 {
	switch {
	// ErrUnknownSession wraps ErrNoSession, so it must be checked first:
	// the codes differ because the recoveries differ (resume vs give up).
	case errors.Is(err, ErrUnknownSession):
		return wire.CodeUnknownSession
	case errors.Is(err, ErrNoSession):
		return wire.CodeNoSession
	case errors.Is(err, ErrSessionClosed):
		return wire.CodeSessionClosed
	case errors.Is(err, ErrServerClosed):
		return wire.CodeServerClosed
	case errors.Is(err, ErrOverloaded):
		return wire.CodeOverloaded
	default:
		return wire.CodeBadRequest
	}
}

func statsToWire(st SessionStats) wire.Stats {
	return wire.Stats{
		Decisions:  st.Decisions,
		Rewards:    st.Rewards,
		MeanReward: st.MeanReward,
		Epsilon:    st.Epsilon,
	}
}
