package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// Shape of the high-fan-out corpus: a scaled-down dense-search benchmark
// corpus (3,000 rather than 200,000 trajectories of 24–56 symbols, uniform
// over 500 rather than 1000 symbols). A query symbol occurs ~240 times, so
// the root of the trie at its position gathers ~200 distinct children —
// far past the fan-out at which the verifier hashes a node's children.
const (
	fanoutTrajs = 3000
	fanoutAlpha = 500
	fanoutQLen  = 8
)

// fanoutCorpus builds the high-fan-out corpus and a query sampled from it.
func fanoutCorpus(t testing.TB, seed int64) (*traj.Dataset, []traj.Symbol) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := traj.NewDataset(traj.VertexRep)
	for i := 0; i < fanoutTrajs; i++ {
		p := make([]traj.Symbol, 24+rng.Intn(33))
		for j := range p {
			p[j] = traj.Symbol(rng.Intn(fanoutAlpha))
		}
		ds.Add(traj.Trajectory{Path: p})
	}
	q, err := workload.SampleQuery(ds, fanoutQLen, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds, q
}

// minRootFanOut is the smallest fan-out the corpus must give the root of
// some trie: well above the verifier's hashing threshold (8), so the
// hashed child lookup carries most of the test's lookups.
const minRootFanOut = 64

// maxRootFanOut returns the most distinct successors any query symbol has
// in ds — the forward-trie root fan-out at that symbol's position.
func maxRootFanOut(ds *traj.Dataset, q []traj.Symbol) int {
	best := 0
	for _, sym := range q {
		next := make(map[traj.Symbol]bool)
		for id := range ds.Trajs {
			p := ds.Trajs[id].Path
			for j := 0; j+1 < len(p); j++ {
				if p[j] == sym {
					next[p[j+1]] = true
				}
			}
		}
		best = max(best, len(next))
	}
	return best
}

// TestHighFanOutEquivalence runs the verifier where its tries fan out to
// hundreds of children per node, the regime of the dense-search benchmark:
// every verification mode, banded and full-width columns, and sequential
// and sharded pipelines must return the brute-force answer bit for bit
// (and so each other's), and banding must not change which columns are
// visited or computed.
func TestHighFanOutEquivalence(t *testing.T) {
	ds, q := fanoutCorpus(t, 71)
	if f := maxRootFanOut(ds, q); f < minRootFanOut {
		t.Fatalf("corpus root fan-out %d, want ≥ %d", f, minRootFanOut)
	}
	lev := wed.NewLev()
	eng := core.NewEngineShards(ds, lev, 2)
	// 0.8 is the benchmark's τ-ratio 0.1 (exact matches only); the wider
	// thresholds deepen the tries and widen their bands.
	for _, tau := range []float64{0.8, 2.5, 4.5} {
		want := baselines.PlainSW(lev, ds, q, tau).Matches
		traj.SortMatches(want)
		for _, par := range []int{1, 2} {
			for _, mode := range []verify.Mode{verify.ModeBT, verify.ModeLocal, verify.ModeSW} {
				got, stats, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: par,
					Verify: verify.Options{Mode: mode}})
				if err != nil {
					t.Fatalf("tau=%v par=%d mode=%s: %v", tau, par, mode, err)
				}
				full, fullStats, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: par,
					Verify: verify.Options{Mode: mode, DisableBanding: true}})
				if err != nil {
					t.Fatalf("tau=%v par=%d mode=%s full-width: %v", tau, par, mode, err)
				}
				label := fmt.Sprintf("tau=%v par=%d %s", tau, par, mode)
				assertIdenticalResults(t, label+"/PlainSW", got, want)
				assertIdenticalResults(t, label+"/full-width", full, got)
				if stats.Verify.StepDPCalls != fullStats.Verify.StepDPCalls ||
					stats.Verify.ColumnsVisited != fullStats.Verify.ColumnsVisited {
					t.Fatalf("%s: banded StepDP/columns %d/%d, full-width %d/%d", label,
						stats.Verify.StepDPCalls, stats.Verify.ColumnsVisited,
						fullStats.Verify.StepDPCalls, fullStats.Verify.ColumnsVisited)
				}
			}
		}
	}
}
