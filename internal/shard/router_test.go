package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rlpm/internal/core"
	"rlpm/internal/rng"
	"rlpm/internal/serve"
)

func testSnapshot(t testing.TB, levels ...int) (core.Config, core.Snapshot) {
	t.Helper()
	cfg := core.DefaultConfig()
	snap := core.Snapshot{State: cfg.State}
	r := rng.New(42)
	for _, n := range levels {
		states := cfg.State.States(n)
		table := make([][]float64, states)
		for s := range table {
			row := make([]float64, n)
			for a := range row {
				row[a] = r.Float64()*2 - 1
			}
			table[s] = row
		}
		snap.Tables = append(snap.Tables, table)
	}
	return cfg, snap
}

func testModel(t testing.TB, levels ...int) *serve.Model {
	t.Helper()
	cfg, snap := testSnapshot(t, levels...)
	m, err := serve.NewModel(cfg, snap)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

// testFleetRouter stands up an n-shard fleet plus a router with a binary
// front, returning the front address.
func testFleetRouter(t *testing.T, model *serve.Model, n int, ringSeed uint64) (*Fleet, *Router, string) {
	t.Helper()
	return testFleetRouterCfg(t, model, n, ringSeed, serve.Config{})
}

// testFleetRouterCfg is testFleetRouter with cfg applied to every shard.
func testFleetRouterCfg(t *testing.T, model *serve.Model, n int, ringSeed uint64, cfg serve.Config) (*Fleet, *Router, string) {
	t.Helper()
	fleet, err := NewFleet(model, n, cfg)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	t.Cleanup(fleet.Close)
	router, err := NewRouter(RouterConfig{RingSeed: ringSeed}, fleet.Specs())
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(router.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- router.ServeBin(ln) }()
	t.Cleanup(func() {
		router.Close()
		ln.Close()
		<-done
	})
	return fleet, router, ln.Addr().String()
}

// testObs builds one valid observation frame for the model.
func testObs(m *serve.Model) []serve.Observation {
	obs := make([]serve.Observation, m.Clusters())
	for c := range obs {
		obs[c] = serve.Observation{Utilization: 0.5, DemandRatio: 0.8, QoS: 1, ClusterQoS: 1}
	}
	return obs
}

// TestRouterPlacementMatchesRing: sessions land on the shard the ring
// names for their seed — the router adds no placement policy of its own.
func TestRouterPlacementMatchesRing(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 3, 7)
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()

	ring := NewRing(7, 0)
	for _, sp := range router.Shards() {
		ring.Add(sp.Name)
	}
	want := map[string]int{}
	for d := 0; d < 24; d++ {
		seed := serve.DeviceSeed(3, d)
		owner, _ := ring.Owner(seed)
		want[owner]++
		if _, err := bc.OpenSession(ctx, serve.SessionOptions{Seed: seed}); err != nil {
			t.Fatalf("open %d: %v", d, err)
		}
	}
	got := router.shardLoads()
	for name, n := range want {
		if got[name] != n {
			t.Fatalf("shard %s holds %d sessions, ring places %d (loads %v)", name, got[name], n, got)
		}
	}
}

// TestRouterBinSessionLifecycle drives a full device life through the
// binary front: create, sequenced decides, reward, close — and verifies
// the decisions match a direct session against the same model.
func TestRouterBinSessionLifecycle(t *testing.T) {
	model := testModel(t, 8, 6)
	_, _, addr := testFleetRouter(t, model, 2, 11)
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()

	sess, err := bc.OpenSession(ctx, serve.SessionOptions{Epsilon: 0.3, Seed: 99})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got := len(sess.Levels); got != model.Clusters() {
		t.Fatalf("session advertises %d clusters, want %d", got, model.Clusters())
	}
	var gotSeq []int
	for i := 0; i < 20; i++ {
		lv, err := sess.Decide(ctx, testObs(model))
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		gotSeq = append(gotSeq, lv...)
	}
	if _, err := sess.Reward(ctx, -1.5); err != nil {
		t.Fatalf("reward: %v", err)
	}
	st, err := sess.Close(ctx)
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.Decisions != 20 || st.Rewards != 1 {
		t.Fatalf("ledger %+v, want 20 decisions / 1 reward", st)
	}

	// Direct oracle: same options, same observation stream, no router.
	direct, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer direct.Close()
	osess, err := direct.CreateSession(serve.SessionOptions{Epsilon: 0.3, Seed: 99})
	if err != nil {
		t.Fatalf("oracle session: %v", err)
	}
	var wantSeq []int
	for i := 0; i < 20; i++ {
		lv, err := osess.Decide(testObs(model))
		if err != nil {
			t.Fatalf("oracle decide %d: %v", i, err)
		}
		wantSeq = append(wantSeq, lv...)
	}
	if !equalSeq(gotSeq, wantSeq) {
		t.Fatalf("routed decisions diverge from direct session:\n got %v\nwant %v", gotSeq[:8], wantSeq[:8])
	}
}

// TestRouterHandoffOnRemove: removing the shard a session lives on makes
// the device's next decide resume transparently, with no decision lost.
func TestRouterHandoffOnRemove(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 3, 5)
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()

	seed := serve.DeviceSeed(1, 0)
	sess, err := bc.OpenSession(ctx, serve.SessionOptions{Epsilon: 0.25, Seed: seed})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var got []int
	for i := 0; i < 10; i++ {
		lv, err := sess.Decide(ctx, testObs(model))
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		got = append(got, lv...)
	}

	// Evict the session's owner from the ring (keep the shard process
	// alive: graceful rebalance removes from routing first).
	ring := NewRing(5, 0)
	for _, sp := range router.Shards() {
		ring.Add(sp.Name)
	}
	owner, _ := ring.Owner(seed)
	if err := router.RemoveShard(owner); err != nil {
		t.Fatalf("remove %s: %v", owner, err)
	}
	if moved := router.movedSessions.Load(); moved == 0 {
		t.Fatal("remove moved no sessions")
	}

	for i := 10; i < 20; i++ {
		lv, err := sess.Decide(ctx, testObs(model))
		if err != nil {
			t.Fatalf("decide %d after remove: %v", i, err)
		}
		got = append(got, lv...)
	}
	if st := bc.TransportStats(); st.Resumes == 0 {
		t.Fatal("handoff did not trigger a client resume")
	}

	// The full 20-decide sequence must match a never-interrupted oracle.
	direct, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer direct.Close()
	osess, err := direct.CreateSession(serve.SessionOptions{Epsilon: 0.25, Seed: seed})
	if err != nil {
		t.Fatalf("oracle session: %v", err)
	}
	var want []int
	for i := 0; i < 20; i++ {
		lv, err := osess.Decide(testObs(model))
		if err != nil {
			t.Fatalf("oracle decide %d: %v", i, err)
		}
		want = append(want, lv...)
	}
	if !equalSeq(got, want) {
		t.Fatalf("handoff changed decisions:\n got %v\nwant %v", got, want)
	}
	if _, err := sess.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRouterHTTPFrontLifecycle drives the JSON face end to end with the
// resilient HTTP client.
func TestRouterHTTPFrontLifecycle(t *testing.T) {
	model := testModel(t, 6, 4)
	fleet, err := NewFleet(model, 2, serve.Config{})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	defer fleet.Close()
	router, err := NewRouter(RouterConfig{RingSeed: 3}, fleet.Specs())
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	hc := serve.NewClient(front.URL)
	defer hc.CloseIdleConnections()
	ctx := context.Background()
	sess, err := hc.CreateSession(ctx, serve.SessionOptions{Seed: 12})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sess.Decide(ctx, testObs(model)); err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
	}
	if _, err := sess.Reward(ctx, -0.5); err != nil {
		t.Fatalf("reward: %v", err)
	}
	st, err := sess.Close(ctx)
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.Decisions != 5 {
		t.Fatalf("ledger decisions %d, want 5", st.Decisions)
	}

	// /v1/ring publishes the placement contract.
	resp, err := http.Get(front.URL + "/v1/ring")
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	defer resp.Body.Close()
	var ringResp RingResponse
	if err := json.NewDecoder(resp.Body).Decode(&ringResp); err != nil {
		t.Fatalf("ring decode: %v", err)
	}
	if ringResp.Seed != 3 || len(ringResp.Shards) != 2 {
		t.Fatalf("ring response %+v", ringResp)
	}
}

// TestRouterScrapeMerge: the router's /metrics merges every shard's
// scraped registry and emits per-shard rollup series with nonzero decide
// counts on every shard that carried traffic.
func TestRouterScrapeMerge(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 2, 7)
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()

	// Open enough devices that both shards own sessions, decide on each.
	perShard := map[string]uint64{}
	ring := NewRing(7, 0)
	for _, sp := range router.Shards() {
		ring.Add(sp.Name)
	}
	for d := 0; d < 8; d++ {
		seed := serve.DeviceSeed(2, d)
		sess, err := bc.OpenSession(ctx, serve.SessionOptions{Seed: seed})
		if err != nil {
			t.Fatalf("open %d: %v", d, err)
		}
		for i := 0; i < 3; i++ {
			if _, err := sess.Decide(ctx, testObs(model)); err != nil {
				t.Fatalf("decide: %v", err)
			}
		}
		owner, _ := ring.Owner(seed)
		perShard[owner] += 3
	}
	if len(perShard) != 2 {
		t.Fatalf("test seeds landed on %d shards, want 2 (%v)", len(perShard), perShard)
	}

	// Text exposition: per-shard rollup plus merged fleet series.
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body := make([]byte, 1<<20)
	n, _ := resp.Body.Read(body)
	for {
		m, err := resp.Body.Read(body[n:])
		n += m
		if err != nil || m == 0 {
			break
		}
	}
	resp.Body.Close()
	text := string(body[:n])
	var fleetTotal uint64
	for name, want := range perShard {
		line := fmt.Sprintf("router_shard_decisions_total{shard=%q} %d", name, want)
		if !strings.Contains(text, line) {
			t.Errorf("exposition missing %q", line)
		}
		fleetTotal += want
	}
	if !strings.Contains(text, fmt.Sprintf("serve_decisions_total %d", fleetTotal)) {
		t.Errorf("merged exposition missing fleet serve_decisions_total %d", fleetTotal)
	}
	if !strings.Contains(text, "router_sessions 8") {
		t.Errorf("router's own gauge missing from exposition")
	}

	// JSON rollup agrees.
	fm, err := scrapeRouterMetrics(ctx, front.URL)
	if err != nil {
		t.Fatalf("json metrics: %v", err)
	}
	if fm.Decisions != fleetTotal {
		t.Fatalf("json rollup decisions %d, want %d", fm.Decisions, fleetTotal)
	}
	if len(fm.PerShard) != 2 {
		t.Fatalf("json rollup has %d shards, want 2", len(fm.PerShard))
	}
	for _, st := range fm.PerShard {
		if !st.Up || st.Decisions != perShard[st.Name] {
			t.Fatalf("per-shard status %+v, want up with %d decisions", st, perShard[st.Name])
		}
	}
}

// TestMapForwardErr pins the error translation: overload (with its
// backoff hint), bad-seq, and bad-request pass through; session-scoped
// not-found becomes the resume signal; transport failures become
// retryable server-closed.
func TestMapForwardErr(t *testing.T) {
	hinted := &serve.BackoffError{
		Err:        fmt.Errorf("%w: queue full", serve.ErrOverloaded),
		RetryAfter: 40 * time.Millisecond,
	}
	if got := mapForwardErr(hinted, true); !errors.Is(got, serve.ErrOverloaded) {
		t.Fatalf("overload did not pass through: %v", got)
	} else {
		var be *serve.BackoffError
		if !errors.As(got, &be) || be.RetryAfter != 40*time.Millisecond {
			t.Fatalf("backoff hint lost across the router: %v", got)
		}
	}
	if got := mapForwardErr(serve.ErrBadSeq, true); !errors.Is(got, serve.ErrBadSeq) {
		t.Fatalf("bad seq rewritten: %v", got)
	}
	if got := mapForwardErr(serve.ErrBadRequest, true); !errors.Is(got, serve.ErrBadRequest) {
		t.Fatalf("bad request rewritten: %v", got)
	}
	for _, in := range []error{serve.ErrNoSession, serve.ErrUnknownSession, serve.ErrSessionClosed} {
		got := mapForwardErr(in, true)
		if !errors.Is(got, serve.ErrUnknownSession) {
			t.Fatalf("session-scoped %v did not become the resume signal: %v", in, got)
		}
	}
	if got := mapForwardErr(fmt.Errorf("dial tcp: connection refused"), true); !errors.Is(got, serve.ErrServerClosed) {
		t.Fatalf("transport failure not retryable: %v", got)
	}
	// Create path: a shard that forgot a session is not a resume signal
	// for a create — it is a failed forward.
	if got := mapForwardErr(serve.ErrNoSession, false); !errors.Is(got, serve.ErrServerClosed) {
		t.Fatalf("create-path session error should be retryable server-closed: %v", got)
	}
}

// TestRouterRejectsUnknownAndForeignEpochs: wrong-epoch and never-minted
// handles answer with the resumable unknown-session signal.
func TestRouterRejectsUnknownAndForeignEpochs(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, _ := testFleetRouter(t, model, 1, 1)
	c := &serve.BinCaller{}
	ctx := context.Background()
	if _, err := router.Decide(ctx, c, 999, router.Epoch(), 1, c.ObsToWire(testObs(model))); !errors.Is(err, serve.ErrUnknownSession) {
		t.Fatalf("unknown handle: %v", err)
	}
	if _, err := router.Decide(ctx, c, 1, router.Epoch()+1, 1, c.ObsToWire(testObs(model))); !errors.Is(err, serve.ErrUnknownSession) {
		t.Fatalf("foreign epoch: %v", err)
	}
}

// TestRouterForwardsFrozenCohort: the router carries the session cohort
// to its shards on both fronts. A frozen device opened through the binary
// front stays on the construction model while a learning device on the
// same shard drives live swaps, and stays frozen when a shard removal
// hands it to another shard by resume; a frozen device created through
// the HTTP front lands in the frozen cohort too.
func TestRouterForwardsFrozenCohort(t *testing.T) {
	model := testModel(t, 6, 4)
	fleet, router, addr := testFleetRouterCfg(t, model, 2, 5, serve.Config{Learn: serve.LearnConfig{
		Enabled: true, Manual: true, Seed: 3, SwapEvery: 1, Alpha: 0.5, Gamma: 0.9,
	}})
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()

	ring := NewRing(5, 0)
	for _, sp := range router.Shards() {
		ring.Add(sp.Name)
	}
	fseed := serve.DeviceSeed(2, 0)
	owner, _ := ring.Owner(fseed)
	var lseed uint64
	for d := 1; lseed == 0; d++ { // a learning device on the frozen device's shard
		if o, _ := ring.Owner(serve.DeviceSeed(2, d)); o == owner {
			lseed = serve.DeviceSeed(2, d)
		}
	}
	var other string
	for _, sp := range fleet.Specs() {
		if sp.Name != owner {
			other = sp.Name
		}
	}
	tickAll := func() {
		for _, sp := range fleet.Specs() {
			fleet.Server(sp.Name).LearnTick()
		}
	}

	learnSess, err := bc.OpenSession(ctx, serve.SessionOptions{Seed: lseed})
	if err != nil {
		t.Fatalf("open learning: %v", err)
	}
	fopts := serve.SessionOptions{Seed: fseed, Epsilon: 0.15, EpsilonDecay: 0.99, Cohort: serve.CohortFrozen}
	frozenSess, err := bc.OpenSession(ctx, fopts)
	if err != nil {
		t.Fatalf("open frozen: %v", err)
	}

	const periods, handoff = 40, 30
	obs := make([][]serve.Observation, periods)
	r := rng.New(17)
	for i := range obs {
		obs[i] = make([]serve.Observation, model.Clusters())
		for c := range obs[i] {
			obs[i][c] = serve.Observation{
				Utilization: r.Float64(), DemandRatio: 1.5 * r.Float64(),
				QoS: 1.2 * r.Float64(), ClusterQoS: 1.2 * r.Float64(),
				Level: r.Intn(model.NumLevels()[c]),
			}
		}
	}
	var got []int
	for i := 0; i < periods; i++ {
		if _, err := learnSess.Decide(ctx, obs[i]); err != nil {
			t.Fatalf("learning decide %d: %v", i, err)
		}
		if i >= 1 {
			if _, err := learnSess.Reward(ctx, -2); err != nil {
				t.Fatalf("learning reward %d: %v", i, err)
			}
		}
		tickAll()
		if i == handoff {
			if fleet.Server(owner).PolicyVersion() == 0 {
				t.Fatal("owner shard never swapped; the frozen pin was not exercised")
			}
			// Non-vacuity: a learning session with the frozen device's
			// options, reading the owner's live policy, sees different
			// decisions on the same stream.
			probe, err := bc.OpenSession(ctx, serve.SessionOptions{Seed: fseed, Epsilon: 0.15, EpsilonDecay: 0.99})
			if err != nil {
				t.Fatalf("open probe: %v", err)
			}
			var live []int
			for j := 0; j < i; j++ {
				lv, err := probe.Decide(ctx, obs[j])
				if err != nil {
					t.Fatalf("probe decide %d: %v", j, err)
				}
				live = append(live, lv...)
			}
			if equalSeq(live, got) {
				t.Fatal("owner's live policy agrees with the frozen stream; the pin is vacuous")
			}
			if _, err := frozenSess.Reward(ctx, 1); err != nil {
				t.Fatalf("frozen reward before handoff: %v", err)
			}
			if err := router.RemoveShard(owner); err != nil {
				t.Fatalf("remove %s: %v", owner, err)
			}
		}
		lv, err := frozenSess.Decide(ctx, obs[i])
		if err != nil {
			t.Fatalf("frozen decide %d: %v", i, err)
		}
		got = append(got, lv...)
	}
	if bc.TransportStats().Resumes == 0 {
		t.Fatal("shard removal did not hand the frozen session off by resume")
	}
	if _, err := frozenSess.Reward(ctx, 1); err != nil {
		t.Fatalf("frozen reward after handoff: %v", err)
	}

	// Oracle: the same device on a plain server, never interrupted.
	direct, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer direct.Close()
	osess, err := direct.CreateSession(fopts)
	if err != nil {
		t.Fatalf("oracle session: %v", err)
	}
	var want []int
	for i := range obs {
		lv, err := osess.Decide(obs[i])
		if err != nil {
			t.Fatalf("oracle decide %d: %v", i, err)
		}
		want = append(want, lv...)
	}
	if !equalSeq(got, want) {
		t.Fatalf("routed frozen session left the construction model:\n got %v\nwant %v", got, want)
	}

	// Through the HTTP front as well: the JSON create's cohort rides the
	// router's binary shard link.
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	hc := serve.NewClient(front.URL)
	defer hc.CloseIdleConnections()
	hs, err := hc.CreateSession(ctx, serve.SessionOptions{Seed: serve.DeviceSeed(4, 0), Cohort: serve.CohortFrozen})
	if err != nil {
		t.Fatalf("HTTP create: %v", err)
	}
	if _, err := hs.Decide(ctx, obs[0]); err != nil {
		t.Fatalf("HTTP decide: %v", err)
	}
	if _, err := hs.Reward(ctx, 1); err != nil {
		t.Fatalf("HTTP reward: %v", err)
	}

	if fr := fleet.Server(owner).MetricsSnapshot().Learn.RewardsFrozen; fr != 1 {
		t.Errorf("owner shard frozen rewards = %d, want 1 (before the handoff)", fr)
	}
	// After the removal every session lives on the other shard: the
	// resumed bin device and the HTTP device both report as frozen.
	if fr := fleet.Server(other).MetricsSnapshot().Learn.RewardsFrozen; fr != 2 {
		t.Errorf("other shard frozen rewards = %d, want 2 (resumed bin device + HTTP device)", fr)
	}
}
