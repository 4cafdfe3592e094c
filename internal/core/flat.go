// Flat Q-table layout for the serving read path. Training mutates tables
// row by row, so the [][]float64 pointer layout is right there — but a
// frozen serving model only ever does argmax reads, and the pointer walk
// costs two dependent loads (row pointer, then row data) per lookup with
// rows scattered across the heap. FlatTables packs every cluster's table
// into one contiguous row-major arena with precomputed row offsets, so a
// lookup is one offset computation plus a linear scan of an
// already-cache-resident row. A *batch* of lookups additionally resolves
// each distinct row at most once per call: a fleet batch is dominated by
// devices observing the same few hot states, and FlatMemo's epoch-tagged
// per-row cache collapses those repeats into one scan plus O(1) replays —
// with no sort and no per-call reset of the cache.

package core

// MaxFlatBatch bounds the lookups one LookupManyInto call can carry: the
// packed lookup key reserves 16 bits for the caller's batch index.
const MaxFlatBatch = 1 << 16

// flatKeyIdxBits is the batch-index field width in a packed lookup key.
const (
	flatKeyIdxBits   = 16
	flatKeyWidthBits = 8
	flatKeyIdxMask   = MaxFlatBatch - 1
	flatKeyWidthMask = (1 << flatKeyWidthBits) - 1
)

// FlatTables is a frozen Q-table set flattened into one contiguous
// row-major float64 arena shared by all clusters. It is immutable after
// construction and safe for concurrent readers; batch lookups carry their
// mutable state in a caller-owned FlatMemo.
type FlatTables struct {
	arena []float64
	off   []int // per-cluster arena offset of row 0
	width []int // per-cluster row width (action count), 1..255
}

// flatMemoActBits is the action field width in a memo tag; the rest of the
// uint32 is the call epoch, so the epoch wraps (and the memo pays one real
// clear) every 2^24 calls.
const flatMemoActBits = 8

// FlatMemo is the caller-owned scratch for LookupManyInto: an epoch-tagged
// per-row argmax cache indexed by arena offset. Each entry packs the call
// epoch that wrote it with the memoized action in one uint32 — a row's
// entry is valid only when its epoch matches the current call's, so
// "resetting" the cache between calls is one counter increment, not a
// clear, and a memo hit is a single load. One goroutine at a time may use
// a given memo (the batch worker owns the backend's).
type FlatMemo struct {
	tag []uint32 // epoch<<flatMemoActBits | action, indexed by row arena offset
	cur uint32
}

// NewMemo allocates a lookup memo sized for this arena (4 bytes per arena
// slot; only row-start slots are ever touched).
func (f *FlatTables) NewMemo() *FlatMemo {
	return &FlatMemo{tag: make([]uint32, len(f.arena))}
}

// Fits reports whether the memo is large enough to serve lookups against
// f's arena. Memos are sized by arena length, and the arena length is a
// pure function of the table shape — so a memo allocated for one model
// keeps fitting every same-shape model an online learner swaps in.
func (m *FlatMemo) Fits(f *FlatTables) bool {
	return len(m.tag) >= len(f.arena)
}

// NewFlatTables flattens tables ([cluster][state][action]) into an arena.
// It returns nil when the shape cannot be packed into the lookup key
// encoding (an action count outside 1..255, or an arena too large for
// the 40-bit row-offset field) — callers fall back to the pointer layout.
// Rows are copied; the source tables are not retained.
func NewFlatTables(tables [][][]float64) *FlatTables {
	f := &FlatTables{}
	for _, t := range tables {
		if len(t) == 0 {
			return nil
		}
		w := len(t[0])
		if w < 1 || w > flatKeyWidthMask {
			return nil
		}
		f.off = append(f.off, len(f.arena))
		f.width = append(f.width, w)
		for _, row := range t {
			if len(row) != w {
				return nil
			}
			f.arena = append(f.arena, row...)
		}
	}
	if len(f.arena) >= 1<<(64-flatKeyIdxBits-flatKeyWidthBits) {
		return nil
	}
	return f
}

// Clusters returns the number of tables packed into the arena.
func (f *FlatTables) Clusters() int { return len(f.off) }

// Width returns cluster's action count.
func (f *FlatTables) Width(cluster int) int { return f.width[cluster] }

// Row returns a read-only view of (cluster, state)'s action values inside
// the arena, capped so an append cannot spill into the next row. Callers
// must not write through it: the arena is shared by every reader.
func (f *FlatTables) Row(cluster, state int) []float64 {
	w := f.width[cluster]
	start := f.off[cluster] + state*w
	return f.arena[start : start+w : start+w]
}

// Argmax returns the greedy action for (cluster, state); ties break low,
// matching argmaxF and the hardware comparator tree.
func (f *FlatTables) Argmax(cluster, state int) int {
	w := f.width[cluster]
	start := f.off[cluster] + state*w
	row := f.arena[start : start+w]
	idx, best := 0, row[0]
	for i := 1; i < len(row); i++ {
		if row[i] > best {
			idx, best = i, row[i]
		}
	}
	return idx
}

// Key packs one lookup of a LookupManyInto batch: the row's arena offset
// and width in the high bits (everything the inner loop needs to slice the
// row without touching the per-cluster metadata again), and the caller's
// batch index idx (0 ≤ idx < MaxFlatBatch) in the low bits so the result
// lands back in the caller's slot.
func (f *FlatTables) Key(cluster, state, idx int) uint64 {
	start := uint64(f.off[cluster] + state*f.width[cluster])
	return start<<(flatKeyIdxBits+flatKeyWidthBits) |
		uint64(f.width[cluster])<<flatKeyIdxBits |
		uint64(idx)
}

// LookupManyInto resolves a batch of packed lookup keys, writing the greedy
// action for each key into out[key's idx]. Each distinct row is scanned at
// most once per call: the first lookup of a row argmaxes it and records the
// action in the memo under the call's epoch; every repeat (distinct fleet
// devices observing the same state) is a single tagged read. keys is not
// modified.
func (f *FlatTables) LookupManyInto(keys []uint64, out []int, m *FlatMemo) {
	m.cur++
	if m.cur >= 1<<(32-flatMemoActBits) { // epoch wrapped: stale tags from
		clear(m.tag) // 16M calls ago would read as fresh, so pay one reset
		m.cur = 1
	}
	curTag := m.cur << flatMemoActBits
	tag, arena := m.tag, f.arena
	for _, k := range keys {
		start := k >> (flatKeyIdxBits + flatKeyWidthBits)
		t := tag[start]
		a := int(t) & (1<<flatMemoActBits - 1)
		if t&^uint32(1<<flatMemoActBits-1) != curTag {
			w := k >> flatKeyIdxBits & flatKeyWidthMask
			row := arena[start : start+w]
			a = 0
			best := row[0]
			for i := 1; i < len(row); i++ {
				if row[i] > best {
					a, best = i, row[i]
				}
			}
			tag[start] = curTag | uint32(a)
		}
		out[k&flatKeyIdxMask] = a
	}
}
