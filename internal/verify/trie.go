package verify

import (
	"math"
	"unsafe"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// trie caches DP columns for one direction of one τ-subsequence position
// (§5.2). Each node corresponds to a path prefix P^d[1..k]; its cached
// column holds wed(P^d[1..k], Q^d[1..j]) for j = 0..|Q^d|. Nodes and
// columns live in flat arenas to avoid per-node allocations.
//
// Child lookup is adaptive. The paper assumes road-network branching is
// tiny ("typically, three"), and most nodes keep a first-child/next-
// sibling list scanned linearly. But a trie is shared by every candidate
// at its τ-subsequence position, so the root — and the shallow nodes
// under it — gather the distinct neighbours of thousands of candidates.
// On the dense-search benchmark (1000-symbol alphabet, 2 CPUs) the root
// holds ~1000 children and sibling scans took 83% of query CPU, ~1.8 µs
// per lookup. A node that gains its hashFanout-th child therefore moves
// its children into the trie's open-addressed (parent, sym) → child
// table and is looked up there from then on. Hashing every node instead
// loses the arena locality of the multi-million-node low-fan-out tries of
// top-k queries, which run slower that way.
//
// Columns are stored τ-banded: only the cells of the active band
// [lo, hi) — the smallest interval containing every cell < bandTau — are
// materialised; everything outside is semantically +Inf. Cells < bandTau
// hold the exact full-width DP value (see wed.StepDPBanded), so every
// quantity the verifier reads through tail/min — all compared against
// thresholds τ′ ≤ bandTau — is indistinguishable from the full-width
// trie, while StepDP work and arena bytes shrink by the band ratio.
// bandTau = +Inf stores full columns (the Options.DisableBanding
// ablation).
type trie struct {
	qd      []traj.Symbol
	qdLen   int
	bandTau float64
	nodes   []trieNode
	// cols is the column arena: node i's band occupies
	// cols[nodes[i].col : nodes[i].col + (hi-lo)].
	cols []float64
	// colMin[i] is the minimum of node i's column — the early-
	// termination lower bound LB of Eq. 11 (+Inf for an empty band).
	colMin []float64
	// step is the full-width scratch column StepDPBanded writes into
	// before the band is copied onto the arena.
	step []float64
	// slots is the child table of the hashed nodes: linear probing over
	// a power-of-two size kept at load ≤ ½; nslots counts the used
	// slots. It keeps its size across reset, so pooled queries reuse it.
	slots  []childSlot
	nslots int
}

// childSlot maps (parent, sym) to the child's node index. The root is
// never a child, so child == 0 marks an empty slot and a cleared table
// is all empty.
type childSlot struct {
	parent int32
	sym    traj.Symbol
	child  int32
}

type trieNode struct {
	sym traj.Symbol
	col int32 // offset into cols
	// [lo, hi) is the band in column-index space (0..qdLen+1); lo == hi
	// encodes an all-≥-τ column with no stored cells.
	lo, hi int32
	// firstChild is a node index, nilNode for a leaf, or hashedNode once
	// the children moved to the slot table (their nextSibling is then
	// unused).
	firstChild  int32
	nextSibling int32 // node index, nilNode at end of sibling list
}

const (
	nilNode    = int32(-1)
	hashedNode = int32(-2)
	// hashFanout is the child count at which a node's sibling list moves
	// to the slot table.
	hashFanout = 8
	// minSlots is the table size a trie's first promotion allocates.
	minSlots = 32
)

// newTrie builds a trie whose root column is wed(ε, Q^d[1..j]) — the
// insertion prefix sums, banded to the cells < bandTau.
func newTrie(costs wed.Costs, qd []traj.Symbol, bandTau float64) *trie {
	t := &trie{}
	t.reset(costs, qd, bandTau)
	return t
}

// reset re-initialises the trie for a new Q^d, truncating the node and
// column arenas in place so their capacity is reused across queries (the
// pooling the resettable Verifier relies on).
func (t *trie) reset(costs wed.Costs, qd []traj.Symbol, bandTau float64) {
	t.qd, t.qdLen, t.bandTau = qd, len(qd), bandTau
	// Root band: the prefix sums are nondecreasing (ins ≥ 0), so the
	// band is [0, hi) up to the first prefix ≥ τ.
	t.cols = t.cols[:0]
	sum := 0.0
	hi := 0
	for j := 0; j <= t.qdLen && sum < bandTau; j++ {
		t.cols = append(t.cols, sum)
		hi = j + 1
		if j < t.qdLen {
			sum += costs.Ins(qd[j])
		}
	}
	rootMin := math.Inf(1)
	if hi > 0 {
		rootMin = t.cols[0] // nondecreasing: the minimum is cell 0
	}
	t.nodes = append(t.nodes[:0], trieNode{sym: -1, col: 0, lo: 0, hi: int32(hi), firstChild: nilNode, nextSibling: nilNode})
	t.colMin = append(t.colMin[:0], rootMin)
	if t.nslots > 0 {
		clear(t.slots)
		t.nslots = 0
	}
	if cap(t.step) < t.qdLen+1 {
		t.step = make([]float64, t.qdLen+1)
	} else {
		t.step = t.step[:t.qdLen+1]
	}
}

// child returns the child of node ni labelled sym, creating (and computing
// its banded DP column via StepDPBanded, Algorithm 6) if absent. computed
// reports whether a StepDP call happened — a cache miss in the paper's CMR
// metric; st accumulates the cell-level band counters.
func (t *trie) child(ni int32, sym traj.Symbol, costs wed.Costs, st *Stats) (ci int32, computed bool) {
	first := t.nodes[ni].firstChild
	kids := 0
	if first == hashedNode {
		if c := t.slots[t.probe(ni, sym)].child; c != 0 {
			return c, false
		}
	} else {
		for c := first; c != nilNode; c = t.nodes[c].nextSibling {
			if t.nodes[c].sym == sym {
				return c, false
			}
			kids++
		}
	}
	// Cache miss: derive the child band from the parent's and append the
	// banded column to the arena.
	pn := t.nodes[ni]
	parent := t.cols[pn.col : pn.col+(pn.hi-pn.lo)]
	lo, hi, cells := wed.StepDPBanded(costs, t.qd, sym, parent, int(pn.lo), int(pn.hi), t.bandTau, t.step)
	st.CellsComputed += int64(cells)
	st.CellsAvailable += int64(t.qdLen + 1)
	off := int32(len(t.cols))
	t.cols = append(t.cols, t.step[lo:hi]...)
	mn := math.Inf(1)
	if hi > lo {
		mn = wed.Min(t.step[lo:hi])
	}
	t.colMin = append(t.colMin, mn)
	ci = int32(len(t.nodes))
	t.nodes = append(t.nodes, trieNode{
		sym:         sym,
		col:         off,
		lo:          int32(lo),
		hi:          int32(hi),
		firstChild:  nilNode,
		nextSibling: nilNode,
	})
	switch {
	case first == hashedNode:
		t.insertSlot(ni, sym, ci)
	case kids+1 < hashFanout:
		t.nodes[ci].nextSibling = first
		t.nodes[ni].firstChild = ci
	default:
		// Promotion: the hashFanout-th child moves the whole list.
		for c := first; c != nilNode; c = t.nodes[c].nextSibling {
			t.insertSlot(ni, t.nodes[c].sym, c)
		}
		t.insertSlot(ni, sym, ci)
		t.nodes[ni].firstChild = hashedNode
	}
	return ci, true
}

// slotHash spreads (parent, sym) over the table (Fibonacci hashing: probe
// takes the high half of the product, where every key bit has mixed in).
func slotHash(parent int32, sym traj.Symbol) uint64 {
	return (uint64(uint32(parent))<<32 | uint64(uint32(sym))) * 0x9e3779b97f4a7c15
}

// probe returns the index of the slot holding (parent, sym), or of the
// empty slot where it would go. The table must be non-empty.
func (t *trie) probe(parent int32, sym traj.Symbol) int {
	mask := len(t.slots) - 1
	i := int(slotHash(parent, sym)>>32) & mask
	for {
		s := &t.slots[i]
		if s.child == 0 || (s.parent == parent && s.sym == sym) {
			return i
		}
		i = (i + 1) & mask
	}
}

// insertSlot records child under (parent, sym), doubling the table first
// if the insert would push its load above ½.
func (t *trie) insertSlot(parent int32, sym traj.Symbol, child int32) {
	if 2*(t.nslots+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]childSlot, max(minSlots, 2*len(old)))
		for _, s := range old {
			if s.child != 0 {
				t.slots[t.probe(s.parent, s.sym)] = s
			}
		}
	}
	t.slots[t.probe(parent, sym)] = childSlot{parent: parent, sym: sym, child: child}
	t.nslots++
}

// tail returns E^d_k for node ni: the last cell of its column,
// wed(P^d[1..k], Q^d) — +Inf when cell |Q^d| fell outside the band (its
// true value is ≥ τ and can never join a result).
func (t *trie) tail(ni int32) float64 {
	nd := t.nodes[ni]
	if nd.lo < nd.hi && nd.hi == int32(t.qdLen)+1 {
		return t.cols[nd.col+(nd.hi-nd.lo)-1]
	}
	return math.Inf(1)
}

// min returns the column minimum of node ni.
func (t *trie) min(ni int32) float64 { return t.colMin[ni] }

// numNodes returns the number of cached columns (trie size metric).
func (t *trie) numNodes() int { return len(t.nodes) }

// arenaCap reports the trie's retained arena footprint in float64-sized
// units — the input to the pool-bloat cap in Put. Nodes, colMin and the
// slot table count too: with narrow or empty bands a node costs more than
// its cells, so a cols-only measure would let the node arena (or the
// child table of a high-fan-out trie) pin memory unchecked.
func (t *trie) arenaCap() int {
	const (
		nodeBytes = int(unsafe.Sizeof(trieNode{}))
		slotBytes = int(unsafe.Sizeof(childSlot{}))
	)
	return cap(t.cols) + cap(t.colMin) + cap(t.step) + (cap(t.nodes)*nodeBytes+cap(t.slots)*slotBytes+7)/8
}
