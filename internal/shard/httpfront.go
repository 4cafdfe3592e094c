// HTTP front: the router's JSON API. Devices get the same routes a shard
// serves — create/resume/decide/reward/close under /v1, /metrics,
// /healthz — plus the fleet views only a router can offer: GET /v1/ring
// (membership + placement contract) and a /metrics exposition that merges
// every shard's scraped registry snapshot into one fleet-wide view with
// per-shard rollup series alongside the router's own counters.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"rlpm/internal/obs"
	"rlpm/internal/serve"
)

// RingResponse answers GET /v1/ring: everything a peer process needs to
// reproduce the router's placement decisions byte-for-byte.
type RingResponse struct {
	Seed   uint64      `json:"seed"`
	VNodes int         `json:"vnodes"`
	Epoch  uint32      `json:"epoch"`
	Shards []ShardSpec `json:"shards"`
}

// ShardStatus is one shard's slice of the fleet rollup.
type ShardStatus struct {
	Name      string `json:"name"`
	Up        bool   `json:"up"`
	Sessions  int    `json:"sessions"`
	Decisions uint64 `json:"decisions"`
}

// RouterMetrics is the JSON /metrics body. Decisions aggregates the
// fleet's decide-period counters from the live scrape, so the load
// generator's JSON scrape reads fleet truth, not just router-local
// forwarding counts.
type RouterMetrics struct {
	UptimeS         float64       `json:"uptime_s"`
	Shards          int           `json:"shards"`
	Sessions        int           `json:"sessions"`
	SessionsCreated uint64        `json:"sessions_created"`
	Resumes         uint64        `json:"resumes"`
	Moved           uint64        `json:"moved"`
	Decisions       uint64        `json:"decisions"`
	DecideFrames    uint64        `json:"decide_frames"`
	DecideWindows   uint64        `json:"decide_windows"`
	Rewards         uint64        `json:"rewards"`
	ForwardErrors   uint64        `json:"forward_errors"`
	PerShard        []ShardStatus `json:"per_shard"`
}

// errorResponse mirrors serve's uniform error body, code strings included,
// so resilient clients classify router answers identically.
type errorResponse struct {
	Error        string `json:"error"`
	Code         string `json:"code,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// Handler returns the router's HTTP API.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", r.handleCreate)
	mux.HandleFunc("POST /v1/sessions/resume", r.handleResume)
	mux.HandleFunc("POST /v1/sessions/{id}/decide", r.handleDecide)
	mux.HandleFunc("POST /v1/sessions/{id}/reward", r.handleReward)
	mux.HandleFunc("DELETE /v1/sessions/{id}", r.handleClose)
	mux.HandleFunc("GET /v1/ring", r.handleRing)
	mux.HandleFunc("POST /v1/shards", r.handleAddShard)
	mux.HandleFunc("DELETE /v1/shards/{name}", r.handleRemoveShard)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps a core-op failure onto serve's HTTP statuses and code
// strings, preserving the shard's backoff hint on overload sheds.
func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, ""
	switch {
	case errors.Is(err, serve.ErrUnknownSession):
		status, code = http.StatusNotFound, "unknown_session"
	case errors.Is(err, serve.ErrNoSession):
		status, code = http.StatusNotFound, "no_session"
	case errors.Is(err, serve.ErrSessionClosed):
		status, code = http.StatusGone, "session_closed"
	case errors.Is(err, serve.ErrBadSeq):
		status, code = http.StatusConflict, "bad_seq"
	case errors.Is(err, serve.ErrServerClosed):
		status, code = http.StatusServiceUnavailable, "server_closed"
	case errors.Is(err, serve.ErrOverloaded):
		status, code = http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, serve.ErrBadRequest):
		status, code = http.StatusBadRequest, ""
	}
	resp := errorResponse{Error: err.Error(), Code: code}
	var be *serve.BackoffError
	if errors.As(err, &be) && be.RetryAfter > 0 {
		resp.RetryAfterMs = be.RetryAfter.Milliseconds()
		secs := (be.RetryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	writeJSON(w, status, resp)
}

func writeBadRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

func decodeBody(req *http.Request, v any) error {
	err := json.NewDecoder(req.Body).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return nil
	}
	return fmt.Errorf("shard: bad request body: %w", err)
}

func (r *Router) reqCtx(req *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(req.Context(), r.cfg.CallTimeout)
}

func (r *Router) handleCreate(w http.ResponseWriter, req *http.Request) {
	var opts serve.SessionOptions
	if err := decodeBody(req, &opts); err != nil {
		writeBadRequest(w, err)
		return
	}
	ctx, cancel := r.reqCtx(req)
	defer cancel()
	c := r.getCaller()
	info, err := r.CreateSession(ctx, c, opts)
	r.putCaller(c)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, serve.CreateSessionResponse{
		ID:        info.ID,
		Epoch:     info.Epoch,
		Clusters:  len(info.NumLevels),
		NumLevels: info.NumLevels,
	})
}

func (r *Router) handleResume(w http.ResponseWriter, req *http.Request) {
	var body serve.ResumeSessionRequest
	if err := decodeBody(req, &body); err != nil {
		writeBadRequest(w, err)
		return
	}
	st := serve.ResumeState{
		Options:    body.Options,
		Epsilon:    body.Epsilon,
		Seq:        body.Seq,
		LastLevels: body.LastLevels,
		PrevDemand: body.PrevDemand,
		Decisions:  body.Decisions,
		Rewards:    body.Rewards,
		RewardSum:  body.RewardSum,
	}
	for i, hx := range body.Rng {
		if hx == "" {
			continue
		}
		v, err := strconv.ParseUint(hx, 16, 64)
		if err != nil {
			writeBadRequest(w, fmt.Errorf("shard: bad rng state word %d: %w", i, err))
			return
		}
		st.Rng[i] = v
	}
	ctx, cancel := r.reqCtx(req)
	defer cancel()
	c := r.getCaller()
	info, err := r.ResumeSession(ctx, c, st)
	r.putCaller(c)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, serve.CreateSessionResponse{
		ID:        info.ID,
		Epoch:     info.Epoch,
		Clusters:  len(info.NumLevels),
		NumLevels: info.NumLevels,
	})
}

func (r *Router) handleDecide(w http.ResponseWriter, req *http.Request) {
	var body serve.DecideRequest
	if err := decodeBody(req, &body); err != nil {
		writeBadRequest(w, err)
		return
	}
	ctx, cancel := r.reqCtx(req)
	defer cancel()
	c := r.getCaller()
	levels, err := r.DecideByID(ctx, c, req.PathValue("id"), body.Epoch, body.Seq, body.Observations)
	if err != nil {
		r.putCaller(c)
		writeError(w, err)
		return
	}
	// levels is the caller's scratch: copy before releasing it to the pool.
	out := append([]int(nil), levels...)
	r.putCaller(c)
	writeJSON(w, http.StatusOK, serve.DecideResponse{Levels: out})
}

func (r *Router) handleReward(w http.ResponseWriter, req *http.Request) {
	var body serve.RewardRequest
	if err := decodeBody(req, &body); err != nil {
		writeBadRequest(w, err)
		return
	}
	ctx, cancel := r.reqCtx(req)
	defer cancel()
	c := r.getCaller()
	st, err := r.RewardByID(ctx, c, req.PathValue("id"), body.Epoch, body.Seq, body.Reward)
	r.putCaller(c)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, serve.SessionStats{
		ID:         req.PathValue("id"),
		Decisions:  st.Decisions,
		Rewards:    st.Rewards,
		MeanReward: st.MeanReward,
		Epsilon:    st.Epsilon,
	})
}

func (r *Router) handleClose(w http.ResponseWriter, req *http.Request) {
	ctx, cancel := r.reqCtx(req)
	defer cancel()
	c := r.getCaller()
	st, err := r.CloseSessionByID(ctx, c, req.PathValue("id"))
	r.putCaller(c)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, serve.SessionStats{
		ID:         req.PathValue("id"),
		Decisions:  st.Decisions,
		Rewards:    st.Rewards,
		MeanReward: st.MeanReward,
		Epsilon:    st.Epsilon,
	})
}

func (r *Router) handleRing(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	resp := RingResponse{
		Seed:   r.cfg.RingSeed,
		VNodes: r.ring.vnodes,
		Epoch:  r.cfg.Epoch,
	}
	for _, name := range r.ring.Members() {
		resp.Shards = append(resp.Shards, r.shards[name].spec)
	}
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleAddShard / handleRemoveShard are the admin face of rebalancing.
func (r *Router) handleAddShard(w http.ResponseWriter, req *http.Request) {
	var spec ShardSpec
	if err := decodeBody(req, &spec); err != nil {
		writeBadRequest(w, err)
		return
	}
	if err := r.AddShard(spec); err != nil {
		writeBadRequest(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "added", "shard": spec.Name})
}

func (r *Router) handleRemoveShard(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	if err := r.RemoveShard(name); err != nil {
		writeBadRequest(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed", "shard": name})
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	up := time.Since(r.start).Seconds()
	if up < 0 {
		up = 0
	}
	writeJSON(w, http.StatusOK, serve.HealthResponse{Status: "ok", UptimeS: up})
}

// shardScrape is one shard's scraped registry snapshot.
type shardScrape struct {
	spec ShardSpec
	snap obs.RegistrySnapshot
	err  error
}

// scrapeFleet GETs every shard's /debug/obs concurrently and returns the
// per-shard snapshots in ring order. Shards without an HTTP address or
// that fail to answer come back with err set — the merge skips them and
// the rollup marks them down.
func (r *Router) scrapeFleet(ctx context.Context) []shardScrape {
	specs := r.Shards()
	out := make([]shardScrape, len(specs))
	done := make(chan int, len(specs))
	for i, sp := range specs {
		out[i].spec = sp
		go func(i int, sp ShardSpec) {
			defer func() { done <- i }()
			if sp.HTTPAddr == "" {
				out[i].err = fmt.Errorf("shard %s: no http addr", sp.Name)
				return
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+sp.HTTPAddr+"/debug/obs", nil)
			if err != nil {
				out[i].err = err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				out[i].err = fmt.Errorf("shard %s: scrape status %d", sp.Name, resp.StatusCode)
				return
			}
			out[i].err = json.NewDecoder(resp.Body).Decode(&out[i].snap)
		}(i, sp)
	}
	for range specs {
		<-done
	}
	return out
}

// fleetSeriesValue sums a counter/gauge series (across all label sets)
// from a snapshot.
func fleetSeriesValue(snap *obs.RegistrySnapshot, name string) float64 {
	total := 0.0
	for i := range snap.Series {
		if snap.Series[i].Name == name && snap.Series[i].Hist == nil {
			total += snap.Series[i].Value
		}
	}
	return total
}

// handleMetrics content-negotiates like a shard: JSON rollup for
// application/json, Prometheus text otherwise. Both views scrape the
// fleet live: the text exposition is the router's own registry, a
// per-shard rollup (router_shard_up, router_shard_sessions,
// router_shard_decisions_total), and then the merged fleet registry —
// every shard's counters summed and histograms bucket-merged, one series
// set for dashboards that want the fleet as if it were one process.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	ctx, cancel := context.WithTimeout(req.Context(), 2*time.Second)
	defer cancel()
	scrapes := r.scrapeFleet(ctx)

	merged := &obs.RegistrySnapshot{}
	statuses := make([]ShardStatus, 0, len(scrapes))
	var fleetDecisions uint64
	for i := range scrapes {
		sc := &scrapes[i]
		st := ShardStatus{Name: sc.spec.Name}
		if sc.err != nil {
			r.scrapeErrors.Add(1)
			statuses = append(statuses, st)
			continue
		}
		st.Up = true
		st.Sessions = int(fleetSeriesValue(&sc.snap, "serve_sessions"))
		st.Decisions = uint64(fleetSeriesValue(&sc.snap, "serve_decisions_total"))
		fleetDecisions += st.Decisions
		statuses = append(statuses, st)
		if err := merged.Merge(&sc.snap); err != nil {
			r.scrapeErrors.Add(1)
		}
	}

	if strings.Contains(req.Header.Get("Accept"), "application/json") {
		up := time.Since(r.start).Seconds()
		if up < 0 {
			up = 0
		}
		r.mu.Lock()
		nShards, nSessions := len(r.shards), len(r.sessions)
		r.mu.Unlock()
		writeJSON(w, http.StatusOK, RouterMetrics{
			UptimeS:         up,
			Shards:          nShards,
			Sessions:        nSessions,
			SessionsCreated: r.sessionsCreated.Load(),
			Resumes:         r.resumesFwd.Load(),
			Moved:           r.movedSessions.Load(),
			Decisions:       fleetDecisions,
			DecideFrames:    r.decideFrames.Load(),
			DecideWindows:   r.decideWindows.Load(),
			Rewards:         r.rewardsFwd.Load(),
			ForwardErrors:   r.forwardErrors.Load(),
			PerShard:        statuses,
		})
		return
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.reg.WritePrometheus(w)
	writeShardRollup(w, statuses)
	_ = merged.WritePrometheus(w)
}

// writeShardRollup emits the per-shard gauge/counter series the shard
// smoke test asserts on: one line per shard, labeled by name.
func writeShardRollup(w io.Writer, statuses []ShardStatus) {
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Name < statuses[j].Name })
	fmt.Fprintf(w, "# HELP router_shard_up whether the shard answered the last scrape\n# TYPE router_shard_up gauge\n")
	for _, st := range statuses {
		up := 0
		if st.Up {
			up = 1
		}
		fmt.Fprintf(w, "router_shard_up{shard=%q} %d\n", st.Name, up)
	}
	fmt.Fprintf(w, "# HELP router_shard_sessions live sessions per shard at the last scrape\n# TYPE router_shard_sessions gauge\n")
	for _, st := range statuses {
		fmt.Fprintf(w, "router_shard_sessions{shard=%q} %d\n", st.Name, st.Sessions)
	}
	fmt.Fprintf(w, "# HELP router_shard_decisions_total decide periods served per shard at the last scrape\n# TYPE router_shard_decisions_total counter\n")
	for _, st := range statuses {
		fmt.Fprintf(w, "router_shard_decisions_total{shard=%q} %d\n", st.Name, st.Decisions)
	}
}
