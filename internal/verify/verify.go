// Package verify implements the candidate verification of §5: local
// verification that runs the WED dynamic programming bidirectionally from
// the candidate position (Lemma 1), early termination on the column lower
// bound (Eq. 11), and bidirectional tries that cache DP columns across
// candidates sharing path prefixes (Algorithms 3–6). Cached columns are
// τ-banded: only the cell range that can still influence a result under
// the query threshold is computed and stored (see trie.go and
// wed.StepDPBanded); the CellsComputed/CellsAvailable counters measure
// the saving, and banding is bit-equal to the full-width DP.
//
// Three modes with identical result sets support the paper's ablations:
//
//	ModeBT    — local bidirectional DP + trie caching  (the paper's -BT)
//	ModeLocal — local bidirectional DP, no caching     (isolates §5.1)
//	ModeSW    — full-trajectory DP scan per candidate  (the paper's -SW)
package verify

import (
	"math"
	"sync"
	"sync/atomic"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// Mode selects the verification algorithm.
type Mode uint8

const (
	// ModeBT is local verification with bidirectional-trie caching.
	ModeBT Mode = iota
	// ModeLocal is local verification without caching.
	ModeLocal
	// ModeSW runs a full dynamic-programming scan over each distinct
	// candidate trajectory (threshold-aware), ignoring positions.
	ModeSW
)

func (m Mode) String() string {
	switch m {
	case ModeBT:
		return "BT"
	case ModeLocal:
		return "Local"
	case ModeSW:
		return "SW"
	default:
		return "Mode(?)"
	}
}

// Options tunes the verifier; the zero value is the paper's configuration.
type Options struct {
	Mode Mode
	// DisableEarlyTermination turns off the Eq. 11 lower-bound cut
	// (ablation for Table 5's UPR).
	DisableEarlyTermination bool
	// DisableBanding makes the tries compute and store full-width DP
	// columns instead of τ-banded ones — the pre-banding behavior, kept
	// as an ablation and as the baseline of the banded-equivalence
	// tests. Results are identical either way; only CellsComputed and
	// the arena sizes differ.
	DisableBanding bool
}

// Stats instruments a verification run with the quantities of Table 5.
type Stats struct {
	// Candidates is the number of (id, j, iq) triples verified.
	Candidates int
	// ColumnsAvailable is the total DP-column count a full SW scan of
	// every candidate would compute (the UPR denominator).
	ColumnsAvailable int64
	// ColumnsVisited counts columns that passed early termination —
	// walked in the trie, whether cached or computed (UPR numerator,
	// CMR denominator).
	ColumnsVisited int64
	// StepDPCalls counts columns actually computed by StepDP (CMR
	// numerator).
	StepDPCalls int64
	// CellsComputed counts DP-cell recurrence evaluations inside those
	// StepDP calls; CellsAvailable is what full-width columns would have
	// cost (StepDPCalls × (|Q^d|+1)). Their ratio is the cell-level
	// band-pruning rate — the Table-5-style metric of the τ-banded
	// verification (1.0 when banding is disabled).
	CellsComputed  int64
	CellsAvailable int64
	// TrieNodes is the total number of cached DP columns across the
	// bidirectional tries at the end of the query (memory metric of
	// §5.2; equals StepDPCalls plus one root per trie in BT mode).
	TrieNodes int
	// Matches is the number of distinct (id, s, t) results.
	Matches int
}

// Add accumulates o's counters into s — the shard-merge of the parallel
// query pipeline. Keeping it next to the struct means a future counter
// cannot be summed on one path and dropped on the other.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.ColumnsAvailable += o.ColumnsAvailable
	s.ColumnsVisited += o.ColumnsVisited
	s.StepDPCalls += o.StepDPCalls
	s.CellsComputed += o.CellsComputed
	s.CellsAvailable += o.CellsAvailable
	s.TrieNodes += o.TrieNodes
	s.Matches += o.Matches
}

// UPR returns the unpruned position rate (§6.4).
func (s Stats) UPR() float64 { return ratio(s.ColumnsVisited, s.ColumnsAvailable) }

// CMR returns the cache miss rate (§6.4).
func (s Stats) CMR() float64 { return ratio(s.StepDPCalls, s.ColumnsVisited) }

// TUR returns the total unpruned rate UPR × CMR.
func (s Stats) TUR() float64 { return s.UPR() * s.CMR() }

// BandRatio returns CellsComputed / CellsAvailable: the fraction of DP
// cells the τ-banded columns actually evaluated (1.0 = no cell pruning).
func (s Stats) BandRatio() float64 { return ratio(s.CellsComputed, s.CellsAvailable) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Candidate mirrors filter.Candidate without importing it (avoiding an
// internal dependency cycle in callers that adapt other filters).
type Candidate struct {
	ID  int32
	Pos int32
	IQ  int32
}

// Verifier verifies the candidates of one query: create (or Get from the
// package pool) per query, feed candidates, then call Results. Reset makes
// it reusable across queries with its scratch state — DP column arenas,
// trie nodes, match buffers — retained, so a steady-state query stream
// allocates near-zero in the verify phase.
//
// Matches accumulate per trajectory: candidates should arrive grouped by
// trajectory ID (filter.GroupByTrajectory order), letting each
// trajectory's raw matches be sorted and min-merged in one flush instead
// of hashing a map key per (start, end) pair in the enumeration hot loop.
// Ungrouped input stays correct — Results does a final adjacent merge
// over the canonical sort — it just buffers and merges less efficiently.
type Verifier struct {
	costs wed.Costs
	ds    *traj.Dataset
	q     []traj.Symbol
	tau   float64
	opts  Options

	// bandTau is the trie column band threshold: v.tau normally, +Inf
	// under Options.DisableBanding. Cells ≥ bandTau can never reach a
	// result because every per-candidate τ′ is ≤ tau.
	bandTau float64

	// qrev is q reversed, computed once per Reset: the backward trie of
	// position iq runs over reversed(q[:iq]) == qrev[len(q)-iq:], so no
	// per-trie reversal allocation is needed.
	qrev []traj.Symbol

	// Per-iq bidirectional tries (lazily created: only candidate iqs
	// get tries, which matches Algorithm 3's "for (q, iq) ∈ Q'").
	tries map[int32]dirTries

	// trieFree holds retired tries whose arenas are reused by the next
	// trie this verifier needs (ModeLocal retires a pair per candidate,
	// Reset retires every trie of the previous query).
	trieFree []*trie

	// Grouped accumulation state: chunk buffers the raw (possibly
	// duplicated) matches of curID; flush sorts it by (S, T) and
	// min-merges into out. By Lemma 1 the minimum of the three-way
	// decomposition over all candidates covering a match equals
	// wed(P[s..t], Q), so the min-merge recovers the exact WED.
	curID int32
	chunk []traj.Match
	out   []traj.Match

	// swSeen tracks distinct trajectory IDs already scanned in ModeSW.
	swSeen map[int32]bool

	// Scratch buffers. efSuf[k] = min(ef[k:]) lets the match-enumeration
	// loop skip every dominated E^f suffix in O(1).
	eb, ef, efSuf []float64

	Stats Stats
}

type dirTries struct {
	fwd, bwd *trie
}

// New creates a verifier for query q under threshold tau.
func New(costs wed.Costs, ds *traj.Dataset, q []traj.Symbol, tau float64, opts Options) *Verifier {
	v := &Verifier{}
	v.Reset(costs, ds, q, tau, opts)
	return v
}

// pool recycles verifiers across queries; Get/Put are the entry points.
// poolGets/poolNews instrument it: every Get bumps poolGets, and a Get
// that found the pool empty (a fresh allocation — GC pressure the pool
// failed to absorb) bumps poolNews. Their ratio is the steady-state
// reuse rate the /metrics verifier_pool gauges report.
var (
	pool               = sync.Pool{New: func() any { poolNews.Add(1); return new(Verifier) }}
	poolGets, poolNews atomic.Int64
)

// PoolStats returns the cumulative verifier-pool counters: gets is the
// total number of Get calls, news how many of those had to allocate a
// fresh Verifier because the pool was empty. gets − news is the number
// of reuses; news/gets trending up under steady load means the pool is
// being drained (e.g. GC cycles) faster than Put refills it.
func PoolStats() (gets, news int64) {
	return poolGets.Load(), poolNews.Load()
}

// Get returns a pooled verifier reset for the given query. Pair with Put
// once Results has been read; the verifier must not be used after Put.
//
//subtrajlint:pool-transfer
func Get(costs wed.Costs, ds *traj.Dataset, q []traj.Symbol, tau float64, opts Options) *Verifier {
	poolGets.Add(1)
	v := pool.Get().(*Verifier)
	v.Reset(costs, ds, q, tau, opts)
	return v
}

// Pool-bloat caps: one huge query (long trajectories, fat τ) must not pin
// its worst-case scratch in the pool forever. Put drops any piece whose
// retained capacity exceeds its cap; the next query simply reallocates at
// its own (typically far smaller) natural size. The caps are safety
// valves sized an order of magnitude above the steady state of the bulk
// benchmark workload — a cap that binds on every Put would turn the pool
// into a per-query reallocation treadmill.
const (
	// maxRetainedTries bounds the trie free list (a pair per ModeLocal
	// candidate can pile up arbitrarily many).
	maxRetainedTries = 64
	// maxRetainedArena bounds one trie's combined arena footprint
	// (columns + nodes + column minima + child slot table), in
	// float64-sized units (512 KiB per trie).
	maxRetainedArena = 64 << 10
	// maxRetainedMatches bounds the chunk/out match buffers (~1.5 MiB).
	maxRetainedMatches = 64 << 10
	// maxRetainedSeen bounds the ModeSW dedup map (maps never shrink
	// their buckets; past the cap it is dropped wholesale).
	maxRetainedSeen = 32 << 10
	// maxRetainedCols bounds the E^b/E^f/suffix-min scratch, whose
	// length tracks the longest early-termination walk.
	maxRetainedCols = 32 << 10
)

// Put returns v to the package pool. It drops every reference into the
// finished query — dataset, cost model, and the query slices the trie Q^d
// views alias — so pooling never extends their lifetime, keeps the
// scratch arenas for the next Get, and caps each retained piece so an
// outlier query cannot pin its peak footprint in the pool.
func Put(v *Verifier) {
	v.release()
	pool.Put(v)
}

// release is Put without the pool: it drops the query references and
// trims the retained scratch to the pool-bloat caps.
func (v *Verifier) release() {
	v.costs, v.ds, v.q = nil, nil, nil
	// subtrajlint:unordered-ok retired tries are fully reset before
	// reuse, so free-list order cannot reach any computed value.
	for iq, tr := range v.tries {
		v.trieFree = append(v.trieFree, tr.fwd, tr.bwd)
		delete(v.tries, iq)
	}
	kept := v.trieFree[:0]
	for _, t := range v.trieFree {
		t.qd = nil // aliases the caller's query; reset re-points it
		if len(kept) < maxRetainedTries && t.arenaCap() <= maxRetainedArena {
			kept = append(kept, t)
		}
	}
	clear(kept[len(kept):len(v.trieFree)]) // let dropped tries be collected
	v.trieFree = kept
	if cap(v.chunk) > maxRetainedMatches {
		v.chunk = nil
	}
	if cap(v.out) > maxRetainedMatches {
		v.out = nil
	}
	if len(v.swSeen) > maxRetainedSeen {
		v.swSeen = nil
	}
	if cap(v.eb) > maxRetainedCols {
		v.eb = nil
	}
	if cap(v.ef) > maxRetainedCols {
		v.ef = nil
	}
	if cap(v.efSuf) > maxRetainedCols {
		v.efSuf = nil
	}
}

// Reset prepares v for a new query, retaining allocated scratch state:
// trie arenas move to the free list, maps are cleared in place, and the
// DP scratch buffers keep their capacity.
func (v *Verifier) Reset(costs wed.Costs, ds *traj.Dataset, q []traj.Symbol, tau float64, opts Options) {
	v.costs, v.ds, v.q, v.tau, v.opts = costs, ds, q, tau, opts
	v.bandTau = tau
	if opts.DisableBanding {
		v.bandTau = math.Inf(1)
	}
	v.qrev = append(v.qrev[:0], q...)
	for i, j := 0, len(v.qrev)-1; i < j; i, j = i+1, j-1 {
		v.qrev[i], v.qrev[j] = v.qrev[j], v.qrev[i]
	}
	if v.tries == nil {
		v.tries = make(map[int32]dirTries)
	} else {
		// subtrajlint:unordered-ok retired tries are fully reset before
		// reuse, so free-list order cannot reach any computed value.
		for iq, tr := range v.tries {
			v.trieFree = append(v.trieFree, tr.fwd, tr.bwd)
			delete(v.tries, iq)
		}
	}
	v.curID = -1
	v.chunk = v.chunk[:0]
	v.out = v.out[:0]
	if v.swSeen == nil {
		v.swSeen = make(map[int32]bool)
	} else {
		clear(v.swSeen)
	}
	v.Stats = Stats{}
}

// Verify processes one candidate (Algorithm 4).
func (v *Verifier) Verify(c Candidate) { v.VerifyAt(c, v.tau) }

// VerifyAt is Verify under a per-candidate effective threshold tauEff ≤
// the query τ (larger values are clamped). Matches are enumerated and
// pruned against tauEff while the trie columns stay banded — and shared
// across candidates — at the query τ; since banded cells < τ hold exact
// values and cells ≥ τ are only read through comparisons against
// thresholds ≤ τ, every tauEff ≤ τ sees exact results. The incremental
// top-k driver uses this to tighten the search radius mid-round as
// trajectories resolve, without rebuilding trie state.
func (v *Verifier) VerifyAt(c Candidate, tauEff float64) {
	if tauEff > v.tau {
		tauEff = v.tau
	}
	v.Stats.Candidates++
	if v.opts.Mode == ModeSW {
		v.verifySW(c.ID, tauEff)
		return
	}
	if c.ID != v.curID {
		v.flush()
		v.curID = c.ID
	}
	p := v.ds.Path(c.ID)
	j := int(c.Pos)
	b := p[j]
	qSym := v.q[c.IQ]
	subCost := v.costs.Sub(qSym, b)
	tauPrime := tauEff - subCost
	v.Stats.ColumnsAvailable += int64(len(p) - 1)
	if tauPrime <= 0 {
		return // even a perfect surrounding alignment cannot reach < τ
	}

	var tr dirTries
	if v.opts.Mode == ModeBT {
		tr = v.trieFor(c.IQ)
	} else {
		tr = v.freshTries(c.IQ) // no sharing across candidates
		defer v.retireTries(tr) // ...so the arenas recycle per candidate
	}

	// E^b over the reversed prefix P[j-1], ..., P[0] vs reversed Q[:iq];
	// E^f over P[j+1], ..., P[|P|-1] vs Q[iq+1:].
	v.eb = v.allPrefixWED(tr.bwd, p, j, -1, tauPrime, v.eb[:0])
	v.ef = v.allPrefixWED(tr.fwd, p, j, +1, tauPrime, v.ef[:0])

	// Suffix minima of E^f: efSuf[k] = min(ef[k:]). efSuf[0] replaces
	// the per-candidate minOf scan, and inside the enumeration loop
	// efSuf[kf] ≥ rem proves every remaining suffix is dominated, so the
	// inner loop breaks in O(1) instead of scanning to the end.
	if cap(v.efSuf) < len(v.ef) {
		v.efSuf = make([]float64, len(v.ef))
	} else {
		v.efSuf = v.efSuf[:len(v.ef)]
	}
	for k := len(v.ef) - 1; k >= 0; k-- {
		m := v.ef[k]
		if k+1 < len(v.ef) && v.efSuf[k+1] < m {
			m = v.efSuf[k+1]
		}
		v.efSuf[k] = m
	}

	minEf := v.efSuf[0]
	for kb, ebv := range v.eb {
		if ebv+minEf >= tauPrime {
			continue
		}
		rem := tauPrime - ebv
		for kf, efv := range v.ef {
			if v.efSuf[kf] >= rem {
				break // every E^f from kf on is ≥ rem
			}
			if efv >= rem {
				continue
			}
			v.chunk = append(v.chunk, traj.Match{
				ID: c.ID, S: int32(j - kb), T: int32(j + kf),
				WED: subCost + ebv + efv,
			})
		}
	}
}

// TakeBest reduces the matches buffered since the last flush boundary —
// with trajectory-grouped input, the current trajectory's raw matches —
// to the single best by (WED, span length, S, T), clears the buffer, and
// reports whether any match existed. Raw duplicates of one (S, T) span
// need no min-merge first: the duplicate holding its span's minimum WED
// represents the span in this order, so the global raw minimum equals
// the merged minimum. Drivers that only need per-trajectory bests (the
// top-k driver) call this after feeding each trajectory's candidates
// instead of accumulating every match for Results.
func (v *Verifier) TakeBest() (traj.Match, bool) {
	if len(v.chunk) == 0 {
		return traj.Match{}, false
	}
	best := v.chunk[0]
	for _, m := range v.chunk[1:] {
		if m.WED < best.WED ||
			(m.WED == best.WED && (m.T-m.S < best.T-best.S ||
				(m.T-m.S == best.T-best.S && (m.S < best.S || (m.S == best.S && m.T < best.T))))) {
			best = m
		}
	}
	v.chunk = v.chunk[:0]
	return best, true
}

// SnapshotStats returns the verifier's counters with the trie-node total
// filled in — the same end-of-query accounting Results performs — without
// ending the query. Drivers that consume per-trajectory bests via
// TakeBest and never call Results read their per-round stats here.
func (v *Verifier) SnapshotStats() Stats {
	s := v.Stats
	// subtrajlint:unordered-ok order-independent sum.
	for _, tr := range v.tries {
		s.TrieNodes += tr.fwd.numNodes() + tr.bwd.numNodes()
	}
	return s
}

// flush sorts the current trajectory's raw matches by (S, T) and
// min-merges duplicates into the output buffer.
func (v *Verifier) flush() {
	if len(v.chunk) == 0 {
		return
	}
	traj.SortMatches(v.chunk) // single ID: effectively (S, T) order
	v.out = appendMinMerged(v.out, v.chunk)
	v.chunk = v.chunk[:0]
}

// appendMinMerged appends the (ID, S, T)-sorted src onto dst, folding
// runs of equal keys — including one straddling the dst/src boundary —
// to their minimum WED (the Lemma 1 combination rule). It is the one
// place the dedup semantics live, shared by the per-trajectory flush and
// Results' final compaction. Aliasing dst = src[:0] compacts src in
// place: the write index always trails the read index and the backing
// array never grows.
func appendMinMerged(dst, src []traj.Match) []traj.Match {
	for _, m := range src {
		if n := len(dst); n > 0 && dst[n-1].Key() == m.Key() {
			if m.WED < dst[n-1].WED {
				dst[n-1].WED = m.WED
			}
			continue
		}
		dst = append(dst, m)
	}
	return dst
}

// allPrefixWED walks/extends the trie along P in the given direction from
// position j (exclusive) and returns the prefix-WED array E^d, E^d[k] =
// wed(P^d[1..k], Q^d), for k = 0..K where K is the early-termination depth
// (Algorithm 5). The returned slice aliases dst's storage. Entries may be
// +Inf when cell |Q^d| fell outside a column's τ-band — such a prefix WED
// is ≥ τ ≥ τ′ and can never join a result, exactly as its true value.
func (v *Verifier) allPrefixWED(t *trie, p []traj.Symbol, j, dir int, tauPrime float64, dst []float64) []float64 {
	node := int32(0)                // root
	dst = append(dst, t.tail(node)) // E_0 = wed(ε, Q^d)
	for k := 1; ; k++ {
		i := j + dir*k
		if i < 0 || i >= len(p) {
			break
		}
		child, computed := t.child(node, p[i], v.costs, &v.Stats)
		if computed {
			v.Stats.StepDPCalls++
		}
		v.Stats.ColumnsVisited++
		if !v.opts.DisableEarlyTermination && t.min(child) >= tauPrime {
			break
		}
		dst = append(dst, t.tail(child))
		node = child
	}
	return dst
}

// trieFor returns (building on first use) the bidirectional tries of iq.
func (v *Verifier) trieFor(iq int32) dirTries {
	if tr, ok := v.tries[iq]; ok {
		return tr
	}
	tr := v.freshTries(iq)
	v.tries[iq] = tr
	return tr
}

func (v *Verifier) freshTries(iq int32) dirTries {
	qf := v.q[iq+1:]
	qb := v.qrev[len(v.q)-int(iq):] // reversed(q[:iq]), pre-materialised by Reset
	return dirTries{
		fwd: v.takeTrie(qf),
		bwd: v.takeTrie(qb),
	}
}

// takeTrie recycles a retired trie's arenas when available.
func (v *Verifier) takeTrie(qd []traj.Symbol) *trie {
	if n := len(v.trieFree); n > 0 {
		t := v.trieFree[n-1]
		v.trieFree = v.trieFree[:n-1]
		t.reset(v.costs, qd, v.bandTau)
		return t
	}
	return newTrie(v.costs, qd, v.bandTau)
}

func (v *Verifier) retireTries(tr dirTries) {
	v.trieFree = append(v.trieFree, tr.fwd, tr.bwd)
}

// verifySW scans the whole trajectory once per distinct ID, enumerating
// every match with the exhaustive threshold-aware DP under tauEff.
func (v *Verifier) verifySW(id int32, tauEff float64) {
	if v.swSeen[id] {
		return
	}
	v.swSeen[id] = true
	if id != v.curID {
		v.flush()
		v.curID = id
	}
	p := v.ds.Path(id)
	v.Stats.ColumnsAvailable += int64(len(p) - 1)
	for _, m := range wed.AllMatches(v.costs, v.q, p, tauEff) {
		v.chunk = append(v.chunk, traj.Match{ID: id, S: int32(m.S), T: int32(m.T), WED: m.WED})
	}
}

// Results returns the deduplicated matches sorted by (ID, S, T). The sort
// is load-bearing, not cosmetic: per-trajectory match runs accumulate in
// feed order, so without it the order would follow the candidate stream,
// and the shard-merge of the parallel pipeline relies on every per-shard
// result list arriving in this canonical order (see traj.SortMatches).
// The adjacent merge after the sort folds duplicate (ID, S, T) runs from
// callers that interleaved trajectories.
func (v *Verifier) Results() []traj.Match {
	v.flush()
	// subtrajlint:unordered-ok order-independent sum.
	for _, tr := range v.tries {
		v.Stats.TrieNodes += tr.fwd.numNodes() + tr.bwd.numNodes()
	}
	traj.SortMatches(v.out)
	v.out = appendMinMerged(v.out[:0], v.out)
	out := make([]traj.Match, len(v.out))
	copy(out, v.out)
	v.Stats.Matches = len(out)
	return out
}
