package serve

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"rlpm/internal/core"
	"rlpm/internal/rng"
)

// requireSameModel demands got and want serve bit-identical policies: every
// table cell, every lookup-arena row and every greedy action, compared
// under math.Float64bits so even a -0/+0 or NaN-payload drift fails.
func requireSameModel(t *testing.T, got, want *Model, when string) {
	t.Helper()
	if (got.flat == nil) != (want.flat == nil) {
		t.Fatalf("%s: lookup arena present=%v, reference present=%v", when, got.flat != nil, want.flat != nil)
	}
	if len(got.tables) != len(want.tables) {
		t.Fatalf("%s: %d clusters, reference %d", when, len(got.tables), len(want.tables))
	}
	for c, tbl := range want.tables {
		if len(got.tables[c]) != len(tbl) {
			t.Fatalf("%s: cluster %d has %d states, reference %d", when, c, len(got.tables[c]), len(tbl))
		}
		for s, row := range tbl {
			rows := [][]float64{got.tables[c][s]}
			if want.flat != nil {
				if fr := want.flat.Row(c, s); !sameBits(fr, row) {
					t.Fatalf("%s: reference arena and tables disagree at cluster %d state %d", when, c, s)
				}
				rows = append(rows, got.flat.Row(c, s))
			}
			for _, r := range rows {
				if !sameBits(r, row) {
					t.Fatalf("%s: cluster %d state %d = %v, reference %v", when, c, s, r, row)
				}
			}
			if g, w := got.Greedy(c, s), want.Greedy(c, s); g != w {
				t.Fatalf("%s: greedy(%d,%d) = %d, reference %d", when, c, s, g, w)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLearnerPublishMatchesSnapshotModel is the differential pin for the
// one-copy publication: a seeded transition stream — rejected samples
// included — goes straight onto the learner's ring, and after every
// publication the served model must be bit-identical to the reference
// NewModel(cfg, updater.Snapshot()) builds by deep copy.
func TestLearnerPublishMatchesSnapshotModel(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{Learn: LearnConfig{
		Enabled: true, Manual: true, Seed: 17, SwapEvery: 4, Alpha: 0.5, Gamma: 0.9,
	}})
	l := srv.learner
	r := rng.New(23)
	states := []int{m.cfg.State.States(3), m.cfg.State.States(5)}
	var offered, poisoned int
	for round := 0; round < 200; round++ {
		for n := 1 + r.Intn(12); n > 0; n-- {
			c := r.Intn(len(states))
			tr := core.Transition{
				Cluster: c, State: r.Intn(states[c]), Action: r.Intn(m.levels[c]),
				NextState: r.Intn(states[c]), Reward: r.Float64()*4 - 3,
			}
			switch r.Intn(8) { // one sample in four is poisoned
			case 0:
				tr.Cluster = len(states)
				poisoned++
			case 1:
				tr.State = states[c]
				poisoned++
			}
			if r.Intn(16) == 0 {
				tr.Reward = math.NaN()
				poisoned++
			}
			if !l.offer(tr) {
				t.Fatal("transition ring full")
			}
			offered++
		}
		// Drain one sample at a time so every SwapEvery publication inside
		// apply is compared, then let the tick publish the tail.
		swaps := l.swaps.Load()
		check := func(when string) {
			if v := l.swaps.Load(); v != swaps {
				swaps = v
				requireSameModel(t, l.sw.Model(), mustModel(t, m.cfg, l.snapshot()), when)
			}
		}
		for l.apply(1) == 1 {
			check("after a SwapEvery publication")
		}
		srv.LearnTick()
		check("after a tick publication")
	}
	met := srv.MetricsSnapshot().Learn
	if met.Rejected == 0 || met.Updates == 0 || met.Updates+met.Rejected != uint64(offered) {
		t.Fatalf("updates=%d rejected=%d of %d offered (%d poisoned): stream did not cover both paths",
			met.Updates, met.Rejected, offered, poisoned)
	}
	// A tick publishes at most once, so more swaps than ticks proves the
	// SwapEvery publications inside apply happened (and were compared).
	if met.Swaps <= 200 {
		t.Fatalf("%d swaps over 200 ticks; the in-apply SwapEvery publication was not exercised", met.Swaps)
	}
}

func mustModel(t *testing.T, cfg core.Config, snap core.Snapshot) *Model {
	t.Helper()
	m, err := NewModel(cfg, snap)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

// TestLearnerPublishAllocsConstant pins the cost model of a publication: a
// fixed handful of allocations (the arena copy, its FlatTables header, the
// Model and its two row-view slices) that does not grow with the table
// size — the old deep copy allocated once per row.
func TestLearnerPublishAllocsConstant(t *testing.T) {
	perPublish := func(levels ...int) float64 {
		m := testModel(t, levels...)
		srv := learnServer(t, m)
		l := srv.learner
		l.applyMu.Lock()
		defer l.applyMu.Unlock()
		return testing.AllocsPerRun(100, l.publishLocked)
	}
	small, large := perPublish(3, 5), perPublish(8, 12, 16)
	if small != large {
		t.Fatalf("publication allocates %v times for a small model, %v for a large one; want a constant", small, large)
	}
	if small > 5 {
		t.Fatalf("publication allocates %v times, want at most 5", small)
	}
}

// TestLearnedCheckpointRoundTrip closes the loop from learning to restart:
// devices decide and report rewards concurrently while the async learner
// publishes under them, and after the drain the drain checkpoint — decoded
// the way a restarting server loads it — must rebuild exactly the model
// the learner last published.
func TestLearnedCheckpointRoundTrip(t *testing.T) {
	m := testModel(t, 3, 5)
	path := filepath.Join(t.TempDir(), "learned.ckpt")
	srv := newTestServer(t, m, nil, Config{
		CheckpointPath: path,
		Learn:          LearnConfig{Enabled: true, Seed: 4, SwapEvery: 8, Alpha: 0.5},
	})
	var wg sync.WaitGroup
	for d := 0; d < 4; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			sess, err := srv.CreateSession(SessionOptions{Seed: uint64(d + 1), Epsilon: 0.3})
			if err != nil {
				t.Errorf("CreateSession: %v", err)
				return
			}
			for i, o := range testObs(m, uint64(d+40), 60) {
				if _, err := sess.Decide(o); err != nil {
					t.Errorf("device %d decide %d: %v", d, i, err)
					return
				}
				if i >= 1 {
					if _, err := sess.RewardSeq(uint64(i), -0.2*float64(i%5)); err != nil {
						t.Errorf("device %d reward %d: %v", d, i, err)
						return
					}
				}
			}
		}(d)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	met := srv.MetricsSnapshot().Learn
	if met.Updates == 0 || met.PolicyVersion == 0 {
		t.Fatalf("nothing learned before the drain: updates=%d version=%d", met.Updates, met.PolicyVersion)
	}
	snap, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	requireSameModel(t, mustModel(t, m.cfg, snap), srv.learner.sw.Model(), "drain checkpoint vs last publication")
}
