package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/traj"
)

// gateSample is how many trajectories besides the answer's own the
// PlainSW gate scans. A full scan of the road corpus under the network
// cost models takes tens of seconds per query; the sample keeps the gate
// to about a second while still catching both wrong matches (every
// answer trajectory is rescanned) and missed ones (in the sample).
const gateSample = 1000

// fingerprint hashes a result list (FNV-1a over every field).
func fingerprint(ms []traj.Match) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(len(ms)))
	for _, m := range ms {
		mix(uint64(uint32(m.ID)))
		mix(uint64(uint32(m.S))<<32 | uint64(uint32(m.T)))
		mix(math.Float64bits(m.WED))
	}
	return h
}

// closeWED compares WEDs to a relative 1e-9: the banded trie DP and the
// full-width scan may round the last bits differently.
func closeWED(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// checkPlainSW compares the engine's answer to a plain (non-temporal)
// query with baselines.PlainSW's exhaustive scan over the answer's
// trajectories plus gateSample others drawn with seed. It returns "" when
// they agree.
func checkPlainSW(eng *core.Engine, sq searchQuery, got []traj.Match, seed int64) string {
	ds := eng.Dataset()
	var ids []int32
	in := map[int32]bool{}
	for _, m := range got {
		if !in[m.ID] {
			in[m.ID] = true
			ids = append(ids, m.ID)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < gateSample && len(in) < ds.Len(); {
		id := int32(rng.Intn(ds.Len()))
		if !in[id] {
			in[id] = true
			ids = append(ids, id)
			n++
		}
	}
	slices.Sort(ids)
	sub := &traj.Dataset{Rep: ds.Rep}
	for _, id := range ids {
		sub.Trajs = append(sub.Trajs, ds.Trajs[id])
	}
	want := baselines.PlainSW(eng.Costs(), sub, sq.q, sq.tau).Matches
	for i := range want {
		want[i].ID = ids[want[i].ID]
	}
	traj.SortMatches(want)
	var kept []traj.Match
	for _, m := range got {
		if in[m.ID] {
			kept = append(kept, m)
		}
	}
	if len(kept) != len(want) {
		return fmt.Sprintf("%d matches on the %d scanned trajectories, PlainSW finds %d", len(kept), len(ids), len(want))
	}
	for i := range want {
		if kept[i].Key() != want[i].Key() || !closeWED(kept[i].WED, want[i].WED) {
			return fmt.Sprintf("match %d is %+v, PlainSW has %+v", i, kept[i], want[i])
		}
	}
	return ""
}

// checkTopK checks a top-k answer against PlainSW's best WED per
// trajectory at the returned effective τ: the answer must hold the k
// smallest per-trajectory bests, each at its trajectory's true best WED.
// It returns "" when the answer is right.
func checkTopK(eng *core.Engine, q []traj.Symbol, k int, got []traj.Match, effTau float64) string {
	// Matches are strictly below τ; the k-th best sits exactly at the
	// effective τ, so scan just above it.
	all := baselines.PlainSW(eng.Costs(), eng.Dataset(), q, math.Nextafter(effTau, math.Inf(1))).Matches
	truth := map[int32]float64{}
	for _, m := range all {
		if b, ok := truth[m.ID]; !ok || m.WED < b {
			truth[m.ID] = m.WED
		}
	}
	bests := make([]float64, 0, len(truth))
	for _, b := range truth {
		bests = append(bests, b)
	}
	slices.Sort(bests)
	if want := min(k, len(bests)); len(got) != want {
		return fmt.Sprintf("%d answers, PlainSW has %d trajectories within τ = %g", len(got), len(bests), effTau)
	}
	for i, m := range got {
		if !closeWED(m.WED, bests[i]) {
			return fmt.Sprintf("rank %d has WED %g, PlainSW's rank-%d best is %g", i+1, m.WED, i+1, bests[i])
		}
		if !closeWED(m.WED, truth[m.ID]) {
			return fmt.Sprintf("trajectory %d reported at WED %g, its best is %g", m.ID, m.WED, truth[m.ID])
		}
	}
	return ""
}
