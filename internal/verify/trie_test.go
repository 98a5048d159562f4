package verify

import (
	"math"
	"testing"
	"unsafe"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// fanOut is the root fan-out the trie tests build: well past promotion.
const fanOut = 4*hashFanout + 1

// buildFan adds fanOut children under the root and, under the second
// child, fanOut grandchildren — so the slot table holds keys of two
// parents. After every creation it looks every existing child up again:
// each must be found at the index it was created with, without a StepDP,
// both while the parent still scans its sibling list and after it moved
// to the slot table.
func buildFan(t *testing.T, tr *trie, costs wed.Costs) {
	t.Helper()
	var st Stats
	for _, parent := range []int32{0, 2} {
		var made []int32
		for k := 0; k < fanOut; k++ {
			sym := traj.Symbol(3*k + 1)
			ci, computed := tr.child(parent, sym, costs, &st)
			if !computed {
				t.Fatalf("parent %d: child %d (sym %d) was not computed on creation", parent, k, sym)
			}
			if want := int32(tr.numNodes() - 1); ci != want {
				t.Fatalf("parent %d: child %d created at index %d, want %d", parent, k, ci, want)
			}
			made = append(made, ci)
			if hashed := tr.nodes[parent].firstChild == hashedNode; hashed != (k+1 >= hashFanout) {
				t.Fatalf("parent %d: after %d children hashed = %v", parent, k+1, hashed)
			}
			for j, want := range made {
				got, computed := tr.child(parent, traj.Symbol(3*j+1), costs, &st)
				if computed || got != want {
					t.Fatalf("parent %d, %d children: child %d found at %d (computed=%v), want %d",
						parent, k+1, j, got, computed, want)
				}
			}
		}
	}
	// Symbols never added are still absent: looking one up creates it.
	if _, computed := tr.child(0, 2, costs, &st); !computed {
		t.Fatal("absent symbol 2 returned a cached child")
	}
}

// assertSameTrie requires got and want to hold the same nodes and
// bit-identical columns and column minima.
func assertSameTrie(t *testing.T, got, want *trie) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("%d nodes, want %d", len(got.nodes), len(want.nodes))
	}
	for i := range want.nodes {
		g, w := got.nodes[i], want.nodes[i]
		if g != w {
			t.Fatalf("node %d = %+v, want %+v", i, g, w)
		}
		gc, wc := got.cols[g.col:g.col+g.hi-g.lo], want.cols[w.col:w.col+w.hi-w.lo]
		for j := range wc {
			if math.Float64bits(gc[j]) != math.Float64bits(wc[j]) {
				t.Fatalf("node %d cell %d = %v, want %v", i, j, gc[j], wc[j])
			}
		}
		if math.Float64bits(got.min(int32(i))) != math.Float64bits(want.min(int32(i))) {
			t.Fatalf("node %d min = %v, want %v", i, got.min(int32(i)), want.min(int32(i)))
		}
		if math.Float64bits(got.tail(int32(i))) != math.Float64bits(want.tail(int32(i))) {
			t.Fatalf("node %d tail = %v, want %v", i, got.tail(int32(i)), want.tail(int32(i)))
		}
	}
}

// TestTrieChildPromotion drives a root past the hashing fan-out, then
// resets the same trie (the pooled-query path) for a different Q^d: no
// child of the previous query may be returned, the first lookups must
// compute again, and the rebuilt columns must equal a fresh trie's bit
// for bit. The node stays 24 bytes: the keys live in the slot table.
func TestTrieChildPromotion(t *testing.T) {
	if got := unsafe.Sizeof(trieNode{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(trieNode{}) = %d, want 24", got)
	}
	lev := wed.NewLev()
	q1 := []traj.Symbol{1, 4, 7, 10, 13, 16}
	q2 := []traj.Symbol{7, 2, 1, 40, 43, 4, 5}
	for _, bandTau := range []float64{3, math.Inf(1)} {
		tr := newTrie(lev, q1, bandTau)
		buildFan(t, tr, lev)
		if tr.nslots != 2*fanOut+1 {
			t.Fatalf("bandTau=%v: slot table holds %d children, want %d", bandTau, tr.nslots, 2*fanOut+1)
		}

		tr.reset(lev, q2, bandTau)
		if tr.nslots != 0 || tr.numNodes() != 1 || tr.nodes[0].firstChild != nilNode {
			t.Fatalf("bandTau=%v: reset left %d slots, %d nodes, root firstChild %d",
				bandTau, tr.nslots, tr.numNodes(), tr.nodes[0].firstChild)
		}
		for _, s := range tr.slots {
			if s.child != 0 {
				t.Fatalf("bandTau=%v: reset left slot %+v", bandTau, s)
			}
		}
		buildFan(t, tr, lev)

		fresh := newTrie(lev, q2, bandTau)
		buildFan(t, fresh, lev)
		assertSameTrie(t, tr, fresh)
	}
}

// TestPutCaps pins the pool-bloat caps Put applies to the trie free list:
// a trie whose arena footprint — slot table included — exceeds
// maxRetainedArena is dropped, a small one is kept, and the list stops at
// maxRetainedTries.
func TestPutCaps(t *testing.T) {
	lev := wed.NewLev()
	q := []traj.Symbol{1, 2, 3, 4}
	v := New(lev, nil, q, 2, Options{})

	small := newTrie(lev, q, 2)
	big := newTrie(lev, q, 2)
	withoutSlots := big.arenaCap()
	big.slots = make([]childSlot, maxRetainedArena)
	if withoutSlots > maxRetainedArena || big.arenaCap() <= maxRetainedArena {
		t.Fatalf("fixture: arenaCap %d without slots, %d with; cap %d", withoutSlots, big.arenaCap(), maxRetainedArena)
	}
	v.trieFree = []*trie{big, small}
	v.release()
	if len(v.trieFree) != 1 || v.trieFree[0] != small {
		t.Fatalf("free list after release = %v, want only the small trie", v.trieFree)
	}
	if small.qd != nil {
		t.Fatal("kept trie still aliases the query")
	}

	v.Reset(lev, nil, q, 2, Options{})
	v.trieFree = v.trieFree[:0]
	for range 2 * maxRetainedTries {
		v.trieFree = append(v.trieFree, newTrie(lev, q, 2))
	}
	v.release()
	if len(v.trieFree) != maxRetainedTries {
		t.Fatalf("free list holds %d tries, want %d", len(v.trieFree), maxRetainedTries)
	}
	for i, tr := range v.trieFree[len(v.trieFree):cap(v.trieFree)] {
		if tr != nil {
			t.Fatalf("dropped trie %d still referenced past the free list", i)
		}
	}
}
