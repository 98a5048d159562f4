package core_test

import (
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// searchAllocBudget is the allocation-regression guard for the pooled
// query path (allocs per sequential Search, steady state). The banded
// pipeline with grouped match accumulation measures ~38 allocs/op on Lev
// (plan construction and the returned result slice dominate; verifier
// scratch, match buffers, and banded trie arenas are all pooled); the
// budget leaves headroom for benign churn while still catching a
// per-candidate or per-column allocation regression, which shows up in
// the thousands.
const searchAllocBudget = 90

func TestPooledSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts change under -race")
	}
	t.Run("grid", func(t *testing.T) {
		env := testutil.NewEnv(41, 60, 24)
		m := env.Models()[0] // Lev: no spatial/network substrate allocations
		q := env.Query(m, 8)
		assertSearchAllocs(t, core.NewEngineShards(m.DS, m.Costs, 1), q, oracleTaus(m.Costs, m.DS, q)[1])
	})
	// The high-fan-out corpus drives tries whose nodes hash their
	// children: steady-state queries must reuse each trie's slot table,
	// not allocate one per query. τ = 6.5 puts 7 of the 8 query positions
	// in the τ-subsequence, up to 14 tries hashing; the pooled path measures
	// ~29 allocs/op, and regrowing every slot table per query ~100.
	t.Run("fan-out", func(t *testing.T) {
		ds, q := fanoutCorpus(t, 72)
		assertSearchAllocs(t, core.NewEngineShards(ds, wed.NewLev(), 1), q, 6.5)
	})
}

// assertSearchAllocs warms the pools with a few sequential searches, then
// holds their allocations per search to searchAllocBudget.
func assertSearchAllocs(t *testing.T, eng *core.Engine, q []traj.Symbol, tau float64) {
	t.Helper()
	search := func() {
		if _, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools (verifier, tries, candidate buffers) before counting.
	for i := 0; i < 5; i++ {
		search()
	}
	if avg := testing.AllocsPerRun(50, search); avg > searchAllocBudget {
		t.Fatalf("sequential pooled search allocates %.1f allocs/op, budget %d", avg, searchAllocBudget)
	}
}
