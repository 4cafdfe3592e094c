// Incremental update API: the serving tier's half of online learning.
//
// Training (internal/core/train.go, Policy/Agent) owns the full
// observe→reward→update loop; a serving learner cannot reuse it because
// the serving path has already split that loop apart — devices encode
// observations into decide frames, the server answers greedy actions, and
// rewards arrive later, batched and out of band. TDUpdater is the piece
// that remains once selection is elsewhere: a pair of Q-tables plus the
// exact Double-Q TD step Agent.Step applies, driven by explicit
// Transitions instead of an observation stream. It is single-goroutine by
// design (the serve learner is the only writer). Readers never share these
// tables: the updater keeps the greedy mean table up to date cell by cell,
// and Publish hands out an immutable FlatTables copy of it — one arena
// copy per publication, however large the tables.
package core

import (
	"fmt"
	"math"

	"rlpm/internal/rng"
)

// Transition is one (s, a, r, s') learning sample for one cluster agent,
// as reconstructed by the serving tier from a device's decide history and
// its reward report.
type Transition struct {
	Cluster   int
	State     int
	Action    int
	NextState int
	Reward    float64
}

// TDUpdater applies Double Q-learning TD steps to a shadow copy of a
// served policy's tables. Both tables start from the snapshot (a
// checkpoint stores the mean table, so q = q2 = mean at hydration — the
// same convention Agent.LoadTable uses), and the update rule mirrors
// Agent.Step's DoubleQ branch: a fair coin from the updater's own seeded
// stream picks the table to update, the other provides the bootstrap.
//
// q, q2 and mean share one row-major layout — every cluster's table packed
// back to back, exactly as NewFlatTables packs them — so a (cluster,
// state, action) cell is the same index in all three arenas. mean holds
// (q+q2)/2 for every cell at all times: Apply recomputes the one cell its
// TD step wrote, with the same expression Snapshot uses, so mean stays
// bit-identical to Snapshot() without ever being rebuilt.
type TDUpdater struct {
	state   StateConfig
	off     []int // per-cluster arena offset of row 0
	width   []int // per-cluster action count
	states  []int // per-cluster state count
	q       []float64
	q2      []float64
	mean    []float64
	alpha   float64
	gamma   float64
	r       *rng.Rand
	applied uint64
}

// NewTDUpdater builds an updater over snap's tables. alpha/gamma of 0
// select cfg's values; seed drives the Double-Q coin (the whole point of
// seeding it is the serve tier's deterministic replay mode).
func NewTDUpdater(cfg Config, snap Snapshot, seed uint64, alpha, gamma float64) (*TDUpdater, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if snap.State != cfg.State {
		return nil, fmt.Errorf("core: snapshot state config %+v != config %+v", snap.State, cfg.State)
	}
	if len(snap.Tables) == 0 {
		return nil, fmt.Errorf("core: snapshot has no tables")
	}
	if alpha == 0 {
		alpha = cfg.Alpha
	}
	if gamma == 0 {
		gamma = cfg.Gamma
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: alpha %v out of (0,1]", alpha)
	}
	if gamma < 0 || gamma >= 1 {
		return nil, fmt.Errorf("core: gamma %v out of [0,1)", gamma)
	}
	u := &TDUpdater{
		state: cfg.State,
		alpha: alpha,
		gamma: gamma,
		r:     rng.New(seed),
	}
	for c, tbl := range snap.Tables {
		if len(tbl) == 0 || len(tbl[0]) == 0 {
			return nil, fmt.Errorf("core: cluster %d: empty table", c)
		}
		actions := len(tbl[0])
		if cfg.State.States(actions) != len(tbl) {
			return nil, fmt.Errorf("core: cluster %d: %d states for %d actions, config wants %d",
				c, len(tbl), actions, cfg.State.States(actions))
		}
		u.off = append(u.off, len(u.q))
		u.width = append(u.width, actions)
		u.states = append(u.states, len(tbl))
		for s, row := range tbl {
			if len(row) != actions {
				return nil, fmt.Errorf("core: cluster %d: ragged row %d", c, s)
			}
			u.q = append(u.q, row...)
		}
	}
	u.q2 = append([]float64(nil), u.q...)
	u.mean = make([]float64, len(u.q))
	for i := range u.mean {
		u.mean[i] = (u.q[i] + u.q2[i]) / 2
	}
	return u, nil
}

// Clusters returns the number of per-cluster agents.
func (u *TDUpdater) Clusters() int { return len(u.width) }

// Applied returns the number of transitions applied so far.
func (u *TDUpdater) Applied() uint64 { return u.applied }

// Apply performs one Double-Q TD step for t and returns the signed TD
// error. Out-of-range indices and non-finite rewards are rejected without
// touching the tables or the coin stream, so a poisoned report can neither
// corrupt the policy nor desynchronize a seeded replay.
func (u *TDUpdater) Apply(t Transition) (float64, error) {
	if t.Cluster < 0 || t.Cluster >= len(u.width) {
		return 0, fmt.Errorf("core: transition cluster %d out of [0,%d)", t.Cluster, len(u.width))
	}
	states, actions := u.states[t.Cluster], u.width[t.Cluster]
	if t.State < 0 || t.State >= states || t.NextState < 0 || t.NextState >= states {
		return 0, fmt.Errorf("core: transition states %d->%d out of [0,%d)", t.State, t.NextState, states)
	}
	if t.Action < 0 || t.Action >= actions {
		return 0, fmt.Errorf("core: transition action %d out of [0,%d)", t.Action, actions)
	}
	if math.IsNaN(t.Reward) || math.IsInf(t.Reward, 0) {
		return 0, fmt.Errorf("%w: reward %v", ErrBadObservation, t.Reward)
	}
	upd, eval := u.q, u.q2
	if u.r.Bernoulli(0.5) {
		upd, eval = eval, upd
	}
	next := u.off[t.Cluster] + t.NextState*actions
	cell := u.off[t.Cluster] + t.State*actions + t.Action
	idx, _ := argmaxF(upd[next : next+actions])
	td := t.Reward + u.gamma*eval[next+idx] - upd[cell]
	upd[cell] += u.alpha * td
	u.mean[cell] = (u.q[cell] + u.q2[cell]) / 2
	u.applied++
	return td, nil
}

// Snapshot returns the mean of the two tables — the greedy policy the
// learned state implies, in the same form Agent.Table publishes, ready for
// NewModel / EncodeCheckpoint. It recomputes every cell from q and q2
// rather than reading the maintained mean arena, which keeps it an
// independent oracle for Publish.
func (u *TDUpdater) Snapshot() Snapshot {
	s := Snapshot{State: u.state}
	for c, w := range u.width {
		tbl := make([][]float64, u.states[c])
		for i := range tbl {
			start := u.off[c] + i*w
			row, row2 := u.q[start:start+w], u.q2[start:start+w]
			out := make([]float64, w)
			for j := range row {
				out[j] = (row[j] + row2[j]) / 2
			}
			tbl[i] = out
		}
		s.Tables = append(s.Tables, tbl)
	}
	return s
}

// Publish returns the greedy mean table as an immutable FlatTables: one
// copy of the maintained mean arena, bit-identical to
// NewFlatTables(u.Snapshot().Tables) and sharing the updater's (never
// mutated) offsets and widths. Its cost is one allocation and one copy
// whatever the table size or the number of updates since the last call.
// For a shape NewFlatTables cannot pack (an action count above 255) the
// result still serves Argmax and Row, but not Key.
func (u *TDUpdater) Publish() *FlatTables {
	return &FlatTables{arena: append([]float64(nil), u.mean...), off: u.off, width: u.width}
}
