// Router: the thin tier between device clients and N pmserve shards.
//
// The router speaks the serve wire protocols on both sides. Devices talk
// to it exactly as they would to a single pmserve — same HTTP routes, same
// binary frames, same error codes and backoff hints — and it forwards each
// call to the shard that owns the device's key on the consistent-hash
// ring. It mints its own session identities (handle + "r-..." id) in its
// own epoch, so shard-side handles never leak to devices and a shard
// restart or a rebalance is invisible to the client's addressing scheme.
//
// The router deliberately does NOT retry or resume: device clients already
// run the full mirror/resume machinery (BinSession, Client), and they are
// the only party holding the session's resume state. When the keyspace a
// session lives in moves to another shard — membership change — or the
// owning shard dies, the router answers ErrUnknownSession. That is the
// handoff signal: the device resumes (one round trip) and the router
// places the resumed session on the current owner. Decisions can neither
// be lost nor duplicated across the handoff because the resume carries the
// device's sequence number and the shard-side replay cache deduplicates
// the retried frame.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/obs"
	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

// ShardSpec names one shard and its two listening addresses.
type ShardSpec struct {
	Name     string `json:"name"`
	BinAddr  string `json:"bin_addr"`
	HTTPAddr string `json:"http_addr,omitempty"`
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Epoch identifies this router incarnation to devices; defaults to 1.
	Epoch uint32
	// RingSeed seeds the consistent-hash ring. Every process that should
	// agree on placement (router, load generator) must share it.
	RingSeed uint64
	// VNodes is the ring's virtual-node count per shard; 0 selects
	// DefaultVNodes.
	VNodes int
	// CallTimeout bounds one forwarded call; defaults to 5s.
	CallTimeout time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 5 * time.Second
	}
	return c
}

// shardConn is one shard's spec plus the multiplexed client every forward
// to that shard shares.
type shardConn struct {
	spec ShardSpec
	bc   *serve.BinClient
}

// routerSession is the router's record of one device session: which shard
// holds it and under what shard-side identity. The router's own handle/id
// are the device-visible names.
type routerSession struct {
	mu          sync.Mutex
	handle      uint64 // router-minted, device-visible
	id          string
	key         uint64     // routing key: the device's seed
	shard       *shardConn // nil once moved
	shardHandle uint64
	shardEpoch  uint32
	moved       bool
	closed      bool
}

// Router owns the ring, the shard connections, and the session table. All
// fronts (binary, HTTP) funnel into the same core ops.
type Router struct {
	cfg RouterConfig

	mu         sync.Mutex
	ring       *Ring
	shards     map[string]*shardConn
	sessions   map[uint64]*routerSession
	byID       map[string]*routerSession
	nextHandle uint64
	closed     bool

	start   time.Time
	callers sync.Pool // *serve.BinCaller for the HTTP front and admin ops

	reg             *obs.Registry
	sessionsCreated *obs.Counter
	resumesFwd      *obs.Counter
	decideFrames    *obs.Counter
	decideWindows   *obs.Counter
	rewardsFwd      *obs.Counter
	forwardErrors   *obs.Counter
	movedSessions   *obs.Counter
	scrapeErrors    *obs.Counter

	binMu    sync.Mutex
	binLns   map[net.Listener]struct{}
	binConns map[net.Conn]struct{}
	binWG    sync.WaitGroup
	binDown  atomic.Bool
}

// NewRouter builds a router over the initial shard set. Shard clients dial
// lazily on first forward, so a router can start before its shards listen.
func NewRouter(cfg RouterConfig, shards []ShardSpec) (*Router, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	r := &Router{
		cfg:      cfg,
		ring:     NewRing(cfg.RingSeed, cfg.VNodes),
		shards:   make(map[string]*shardConn, len(shards)),
		sessions: make(map[uint64]*routerSession),
		byID:     make(map[string]*routerSession),
		start:    time.Now(),
		reg:      reg,

		sessionsCreated: reg.NewCounter("router_sessions_created_total", "device sessions placed on shards"),
		resumesFwd:      reg.NewCounter("router_resumes_total", "resume requests forwarded (handoff completions)"),
		decideFrames:    reg.NewCounter("router_decide_frames_total", "decide frames forwarded"),
		decideWindows:   reg.NewCounter("router_decide_windows_total", "decide windows forwarded on the binary front (frames per window = frames / windows)"),
		rewardsFwd:      reg.NewCounter("router_rewards_total", "reward reports forwarded"),
		forwardErrors:   reg.NewCounter("router_forward_errors_total", "forwarded calls that failed"),
		movedSessions:   reg.NewCounter("router_sessions_moved_total", "sessions invalidated by membership change (handoff signals sent)"),
		scrapeErrors:    reg.NewCounter("router_scrape_errors_total", "fleet metric scrapes that failed"),
		binLns:          make(map[net.Listener]struct{}),
		binConns:        make(map[net.Conn]struct{}),
	}
	reg.NewGaugeFunc("router_shards", "shards in the ring", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.shards))
	})
	reg.NewGaugeFunc("router_sessions", "live routed sessions", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.sessions))
	})
	reg.NewGaugeFunc("router_uptime_seconds", "seconds since router start", func() float64 {
		s := time.Since(r.start).Seconds()
		if s < 0 {
			return 0
		}
		return s
	})
	for _, sp := range shards {
		if err := r.AddShard(sp); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// Registry exposes the router's own metrics registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

// Epoch returns the router incarnation devices see.
func (r *Router) Epoch() uint32 { return r.cfg.Epoch }

func (r *Router) getCaller() *serve.BinCaller {
	if c, ok := r.callers.Get().(*serve.BinCaller); ok {
		return c
	}
	return &serve.BinCaller{}
}

func (r *Router) putCaller(c *serve.BinCaller) { r.callers.Put(c) }

// Shards returns the current shard specs in ring (sorted-name) order.
func (r *Router) Shards() []ShardSpec {
	r.mu.Lock()
	defer r.mu.Unlock()
	specs := make([]ShardSpec, 0, len(r.shards))
	for _, name := range r.ring.Members() {
		specs = append(specs, r.shards[name].spec)
	}
	return specs
}

// shardLoads reports live routed sessions per shard name — the rebalance
// harness uses it to pick a deterministic victim.
func (r *Router) shardLoads() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	loads := make(map[string]int, len(r.shards))
	for name := range r.shards {
		loads[name] = 0
	}
	for _, s := range r.sessions {
		s.mu.Lock()
		if s.shard != nil {
			loads[s.shard.spec.Name]++
		}
		s.mu.Unlock()
	}
	return loads
}

// movedRef is one session invalidated by a membership change, with the
// shard-side identity to clean up best-effort.
type movedRef struct {
	sc     *shardConn
	handle uint64
}

// markMovedLocked invalidates every session whose ring owner is no longer
// the shard it lives on. Caller holds r.mu. The sessions leave the table
// immediately — their next request answers ErrUnknownSession, the handoff
// signal — and the returned refs let the caller close the shard-side
// sessions best-effort (the shard may already be dead; its TTL reaper is
// the backstop).
func (r *Router) markMovedLocked() []movedRef {
	var moved []movedRef
	for h, s := range r.sessions {
		s.mu.Lock()
		var cur string
		if s.shard != nil {
			cur = s.shard.spec.Name
		}
		owner, ok := r.ring.Owner(s.key)
		if s.shard == nil || !ok || owner != cur {
			if s.shard != nil && s.shardHandle != 0 {
				moved = append(moved, movedRef{sc: s.shard, handle: s.shardHandle})
			}
			s.moved = true
			s.shard = nil
			delete(r.sessions, h)
			delete(r.byID, s.id)
			r.movedSessions.Add(1)
		}
		s.mu.Unlock()
	}
	return moved
}

// closeMovedAsync closes moved sessions on their old shards best-effort:
// bounded, fire-and-forget, failure is fine (dead shard, TTL reaps).
func (r *Router) closeMovedAsync(moved []movedRef) {
	if len(moved) == 0 {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		c := r.getCaller()
		defer r.putCaller(c)
		for _, m := range moved {
			_, _ = c.Close(ctx, m.sc.bc, m.handle)
		}
	}()
}

// AddShard joins a shard to the ring. Sessions whose keyspace moves to the
// new shard are invalidated (their devices resume onto it).
func (r *Router) AddShard(spec ShardSpec) error {
	if spec.Name == "" || spec.BinAddr == "" {
		return fmt.Errorf("shard: spec needs name and bin addr, got %+v", spec)
	}
	bc := serve.NewBinClient(spec.BinAddr)
	bc.SetCallTimeout(r.cfg.CallTimeout)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		bc.Close()
		return serve.ErrServerClosed
	}
	if _, dup := r.shards[spec.Name]; dup {
		r.mu.Unlock()
		bc.Close()
		return fmt.Errorf("shard: %q already in the ring", spec.Name)
	}
	r.shards[spec.Name] = &shardConn{spec: spec, bc: bc}
	r.ring.Add(spec.Name)
	moved := r.markMovedLocked()
	r.mu.Unlock()
	r.closeMovedAsync(moved)
	return nil
}

// RemoveShard drops a shard from the ring. Its sessions are invalidated;
// their devices resume onto the surviving owners of their keys.
func (r *Router) RemoveShard(name string) error {
	r.mu.Lock()
	sc, ok := r.shards[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("shard: %q not in the ring", name)
	}
	delete(r.shards, name)
	r.ring.Remove(name)
	moved := r.markMovedLocked()
	r.mu.Unlock()
	// Best-effort close on the removed shard only if it is being drained
	// gracefully (it may be dead — calls fail fast and that is fine), then
	// drop the client.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	c := r.getCaller()
	for _, m := range moved {
		if m.sc == sc {
			_, _ = c.Close(ctx, m.sc.bc, m.handle)
		}
	}
	cancel()
	r.putCaller(c)
	var rest []movedRef
	for _, m := range moved {
		if m.sc != sc {
			rest = append(rest, m)
		}
	}
	r.closeMovedAsync(rest)
	sc.bc.Close()
	return nil
}

// Close tears the router down: fronts, shard clients, session table.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	conns := make([]*shardConn, 0, len(r.shards))
	for _, sc := range r.shards {
		conns = append(conns, sc)
	}
	r.sessions = make(map[uint64]*routerSession)
	r.byID = make(map[string]*routerSession)
	r.mu.Unlock()

	r.binDown.Store(true)
	r.binMu.Lock()
	for ln := range r.binLns {
		ln.Close()
	}
	for c := range r.binConns {
		c.Close()
	}
	r.binMu.Unlock()
	r.binWG.Wait()

	for _, sc := range conns {
		sc.bc.Close()
	}
}

// RouterSessionInfo is what create/resume hand back to a front: the
// device-visible identity plus the model shape from the owning shard.
type RouterSessionInfo struct {
	ID        string
	Handle    uint64
	Epoch     uint32
	NumLevels []int
}

// errMoved is the handoff signal: the session's keyspace changed owner
// while the request was in flight.
func errMoved() error {
	return fmt.Errorf("%w: keyspace moved, resume on current owner", serve.ErrUnknownSession)
}

// mapForwardErr translates a shard-call failure into what the device
// should see. Session-scoped not-found answers become the handoff signal
// (resume); overload and sequencing errors pass through untouched so
// backoff hints and dedup semantics survive the extra hop; anything
// transport-shaped becomes a retryable server-closed.
func mapForwardErr(err error, sessionOp bool) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, serve.ErrOverloaded),
		errors.Is(err, serve.ErrBadSeq),
		errors.Is(err, serve.ErrBadRequest):
		return err
	case sessionOp && errors.Is(err, serve.ErrNoSession):
		// Covers ErrUnknownSession too (it wraps ErrNoSession): either way
		// the shard forgot the session and the device must resume.
		return fmt.Errorf("%w: shard lost session (%v)", serve.ErrUnknownSession, err)
	case sessionOp && errors.Is(err, serve.ErrSessionClosed):
		return fmt.Errorf("%w: shard session closed (%v)", serve.ErrUnknownSession, err)
	default:
		return fmt.Errorf("%w: shard call failed: %v", serve.ErrServerClosed, err)
	}
}

// maxPlaceAttempts bounds the create/resume placement loop against a ring
// that changes on every attempt; membership changes are rare, so 4 is
// generous.
const maxPlaceAttempts = 4

// place reserves a session entry on the key's current owner and forwards
// open (a create or resume encoded by the front's caller). If the ring
// moved mid-flight the shard-side session is closed and placement retries
// on the new owner.
func (r *Router) place(ctx context.Context, c *serve.BinCaller, key uint64,
	open func(*serve.BinClient) (serve.BinSessionInfo, error)) (RouterSessionInfo, error) {
	for attempt := 0; attempt < maxPlaceAttempts; attempt++ {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return RouterSessionInfo{}, serve.ErrServerClosed
		}
		owner, ok := r.ring.Owner(key)
		if !ok {
			r.mu.Unlock()
			return RouterSessionInfo{}, fmt.Errorf("%w: no shards in the ring", serve.ErrServerClosed)
		}
		sc := r.shards[owner]
		r.nextHandle++
		s := &routerSession{
			handle: r.nextHandle,
			id:     fmt.Sprintf("r-%06d", r.nextHandle),
			key:    key,
			shard:  sc,
		}
		r.sessions[s.handle] = s
		r.byID[s.id] = s
		r.mu.Unlock()

		info, err := open(sc.bc)
		if err != nil {
			r.dropSession(s)
			r.forwardErrors.Add(1)
			return RouterSessionInfo{}, mapForwardErr(err, false)
		}
		s.mu.Lock()
		if s.moved {
			s.mu.Unlock()
			// The ring changed while the open was in flight: this shard no
			// longer owns the key. Undo the shard-side session and place
			// again on the current owner.
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, _ = c.Close(cctx, sc.bc, info.Handle)
			cancel()
			continue
		}
		s.shardHandle = info.Handle
		s.shardEpoch = info.Epoch
		s.mu.Unlock()
		return RouterSessionInfo{
			ID:        s.id,
			Handle:    s.handle,
			Epoch:     r.cfg.Epoch,
			NumLevels: append([]int(nil), info.NumLevels...),
		}, nil
	}
	return RouterSessionInfo{}, fmt.Errorf("%w: placement unstable (ring churn)", serve.ErrServerClosed)
}

func (r *Router) dropSession(s *routerSession) {
	r.mu.Lock()
	delete(r.sessions, s.handle)
	delete(r.byID, s.id)
	r.mu.Unlock()
}

// CreateSession places a new device session on its key's owner. The
// device's seed is the routing key — the only device-identifying field the
// wire create carries, and the one thing that survives resumes.
func (r *Router) CreateSession(ctx context.Context, c *serve.BinCaller, opts serve.SessionOptions) (RouterSessionInfo, error) {
	info, err := r.place(ctx, c, opts.Seed, func(bc *serve.BinClient) (serve.BinSessionInfo, error) {
		return c.Create(ctx, bc, opts)
	})
	if err == nil {
		r.sessionsCreated.Add(1)
	}
	return info, err
}

// ResumeSession places a resumed session on its key's CURRENT owner — the
// second half of the handoff: the device carries its mirror state here
// after an ErrUnknownSession answer.
func (r *Router) ResumeSession(ctx context.Context, c *serve.BinCaller, st serve.ResumeState) (RouterSessionInfo, error) {
	info, err := r.place(ctx, c, st.Options.Seed, func(bc *serve.BinClient) (serve.BinSessionInfo, error) {
		return c.Resume(ctx, bc, st)
	})
	if err == nil {
		r.resumesFwd.Add(1)
	}
	return info, err
}

// lookupHandle resolves a device-visible handle under the router epoch.
func (r *Router) lookupHandle(handle uint64, epoch uint32) (*routerSession, error) {
	if epoch != 0 && epoch != r.cfg.Epoch {
		return nil, serve.ErrUnknownSession
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, serve.ErrServerClosed
	}
	s, ok := r.sessions[handle]
	if !ok {
		if epoch == 0 {
			return nil, serve.ErrNoSession
		}
		return nil, serve.ErrUnknownSession
	}
	return s, nil
}

// lookupID is lookupHandle for the HTTP front's string ids.
func (r *Router) lookupID(id string, epoch uint32) (*routerSession, error) {
	if epoch != 0 && epoch != r.cfg.Epoch {
		return nil, serve.ErrUnknownSession
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, serve.ErrServerClosed
	}
	s, ok := r.byID[id]
	if !ok {
		if epoch == 0 {
			return nil, fmt.Errorf("%w: %q", serve.ErrNoSession, id)
		}
		return nil, serve.ErrUnknownSession
	}
	return s, nil
}

// target snapshots the session's shard-side identity for one forward.
func (s *routerSession) target() (*shardConn, uint64, uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, 0, serve.ErrSessionClosed
	}
	if s.moved || s.shard == nil {
		return nil, 0, 0, errMoved()
	}
	return s.shard, s.shardHandle, s.shardEpoch, nil
}

// Decide forwards one decide frame: a window of one. The returned slice
// is the caller's scratch, valid until its next decide.
func (r *Router) Decide(ctx context.Context, c *serve.BinCaller, handle uint64, epoch uint32, seq uint64, wobs []wire.Obs) ([]int, error) {
	s, err := r.lookupHandle(handle, epoch)
	if err != nil {
		return nil, err
	}
	return r.decide(ctx, c, s, seq, wobs)
}

// DecideByID is Decide addressed by the HTTP front's session id.
func (r *Router) DecideByID(ctx context.Context, c *serve.BinCaller, id string, epoch uint32, seq uint64, obs []serve.Observation) ([]int, error) {
	s, err := r.lookupID(id, epoch)
	if err != nil {
		return nil, err
	}
	return r.decide(ctx, c, s, seq, c.ObsToWire(obs))
}

func (r *Router) decide(ctx context.Context, c *serve.BinCaller, s *routerSession, seq uint64, wobs []wire.Obs) ([]int, error) {
	p, err := r.startDecide(c, s, seq, wobs)
	if err != nil {
		return nil, err
	}
	c.Flush()
	return r.finishDecide(ctx, c, p)
}

// startDecide queues s's decide on its shard's connection, unflushed (the
// caller flushes once per window); finishDecide collects the answer.
func (r *Router) startDecide(c *serve.BinCaller, s *routerSession, seq uint64, wobs []wire.Obs) (serve.PendingDecide, error) {
	sc, sh, se, err := s.target()
	if err != nil {
		return serve.PendingDecide{}, err
	}
	p, err := c.StartDecide(sc.bc, sh, se, seq, wobs)
	if err != nil {
		r.forwardErrors.Add(1)
		return p, mapForwardErr(err, true)
	}
	return p, nil
}

func (r *Router) finishDecide(ctx context.Context, c *serve.BinCaller, p serve.PendingDecide) ([]int, error) {
	levels, err := c.FinishDecide(ctx, p)
	if err != nil {
		r.forwardErrors.Add(1)
		return nil, mapForwardErr(err, true)
	}
	r.decideFrames.Add(1)
	return levels, nil
}

// Reward forwards a reward report. epoch addresses the *device-facing*
// incarnation (0 = don't check); seq is the device's reward sequence
// number, forwarded verbatim so the shard's dedup cursor sees the same
// stream the device's mirror numbers.
func (r *Router) Reward(ctx context.Context, c *serve.BinCaller, handle uint64, epoch uint32, seq uint64, reward float64) (wire.Stats, error) {
	s, err := r.lookupHandle(handle, epoch)
	if err != nil {
		return wire.Stats{}, err
	}
	return r.rewardSession(ctx, c, s, seq, reward)
}

// RewardByID is Reward addressed by session id.
func (r *Router) RewardByID(ctx context.Context, c *serve.BinCaller, id string, epoch uint32, seq uint64, reward float64) (wire.Stats, error) {
	s, err := r.lookupID(id, epoch)
	if err != nil {
		return wire.Stats{}, err
	}
	return r.rewardSession(ctx, c, s, seq, reward)
}

func (r *Router) rewardSession(ctx context.Context, c *serve.BinCaller, s *routerSession, seq uint64, reward float64) (wire.Stats, error) {
	sc, sh, se, err := s.target()
	if err != nil {
		return wire.Stats{}, err
	}
	st, err := c.Reward(ctx, sc.bc, sh, se, seq, reward)
	if err != nil {
		r.forwardErrors.Add(1)
		return wire.Stats{}, mapForwardErr(err, true)
	}
	r.rewardsFwd.Add(1)
	return st, nil
}

// CloseSession forwards a close and retires the routed session.
func (r *Router) CloseSession(ctx context.Context, c *serve.BinCaller, handle uint64) (wire.Stats, error) {
	s, err := r.lookupHandle(handle, 0)
	if err != nil {
		return wire.Stats{}, err
	}
	return r.closeSession(ctx, c, s)
}

// CloseSessionByID is CloseSession addressed by session id.
func (r *Router) CloseSessionByID(ctx context.Context, c *serve.BinCaller, id string) (wire.Stats, error) {
	s, err := r.lookupID(id, 0)
	if err != nil {
		return wire.Stats{}, err
	}
	return r.closeSession(ctx, c, s)
}

func (r *Router) closeSession(ctx context.Context, c *serve.BinCaller, s *routerSession) (wire.Stats, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return wire.Stats{}, serve.ErrSessionClosed
	}
	if s.moved || s.shard == nil {
		s.closed = true
		s.mu.Unlock()
		r.dropSession(s)
		return wire.Stats{}, errMoved()
	}
	s.closed = true
	sc, sh := s.shard, s.shardHandle
	s.mu.Unlock()
	r.dropSession(s)
	st, err := c.Close(ctx, sc.bc, sh)
	if err != nil {
		r.forwardErrors.Add(1)
		return wire.Stats{}, mapForwardErr(err, true)
	}
	return st, nil
}
