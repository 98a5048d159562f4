package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

const (
	topkK    = 10
	topkQLen = 20
	topkPool = 120
)

func runRoadTopK(ctx context.Context, o options, c *collector) error {
	cfg := roadConfig(o)
	city, setup, err := timeSetup(ctx, o.setupReps, func() (*roadCity, error) { return buildRoadCity(cfg, []string{"EDR"}) }, nil)
	if err != nil {
		return err
	}
	c.endToEnd("setup_s", setup)
	eng := city.engines["EDR"]
	rng := rand.New(rand.NewSource(subSeed(o.seed, streamQueries)))
	queries, err := workload.SampleQueries(eng.Dataset(), topkQLen, topkPool, rng)
	if err != nil {
		return err
	}
	c.shape["trajectories"] = eng.Dataset().Len()
	c.shape["postings"] = eng.Backend().NumPostings()
	c.shape["query_len"] = topkQLen
	c.shape["k"] = topkK
	c.shape["distinct_queries"] = len(queries)
	c.shape["models"] = []string{"EDR"}
	c.shape["backend"] = eng.IndexKind()

	n := len(queries)
	refs := make([]uint64, n)
	var first []traj.Match
	var firstTau float64
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, st, err := eng.SearchTopKStats(q, topkK, core.TopKOptions{})
		if err != nil {
			return fmt.Errorf("reference answer %d: %w", i, err)
		}
		refs[i] = fingerprint(res)
		if i == 0 {
			first, firstTau = res, st.EffectiveTau
		}
	}
	if o.perturb {
		refs[0] ^= 1
	}
	c.attempted++
	if msg := checkTopK(eng, queries[0], topkK, first, firstTau); msg != "" {
		c.fail("top-k query 0: %s", msg)
	}
	c.shape["plainsw_checked"] = 1

	type roundStats struct {
		st    *core.QueryStats
		alloc float64
	}
	var per []roundStats
	var req int32
	// one runs query k and returns its latency; traced, it also records
	// the query's rounds as spans and its allocation.
	one := func(k int, traced bool) time.Duration {
		var before runtimeSample
		var start int64
		if traced {
			before = readRuntime()
			start = c.spans.now()
		}
		t0 := time.Now()
		res, st, err := eng.SearchTopKStats(queries[k], topkK, core.TopKOptions{})
		d := time.Since(t0)
		c.attempted++
		if err != nil {
			c.fail("top-k query %d: %v", k, err)
			return d
		}
		if fingerprint(res) != refs[k] {
			c.fail("top-k query %d: answer differs from its reference", k)
		}
		if traced {
			per = append(per, roundStats{st, (readRuntime().allocBytes - before.allocBytes) / (1 << 20)})
			recordRounds(c.spans, req, start, d, st)
			req++
		}
		return d
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		lat, wall := closedLoop(ctx, budget, func(i int) time.Duration { return one(i%n, false) })
		c.recordLatency(lat)
		c.report("topk_p50_ms", "ms", median(lat))
		c.endToEnd("queries_per_s", float64(len(lat))/wall.Seconds())
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		c.endToEnd("peak_rss_mb", rss)
		return nil
	}

	// Top-k latency varies widely from query to query, so the traced run
	// asks each query twice in a row, untraced and then traced: both sets
	// cover the same queries and the difference of their medians is the
	// tracing overhead.
	before := readRuntime()
	var lat, tlat []float64
	all, _ := closedLoop(ctx, budget, func(i int) time.Duration { return one(i/2%n, i%2 == 1) })
	c.recordRuntime(before, readRuntime(), len(all))
	for i, d := range all {
		if i%2 == 0 {
			lat = append(lat, d)
		} else {
			tlat = append(tlat, d)
		}
	}
	untracedP50 := median(lat)
	var rounds, verified, reused, effTau, alloc, workers, verifyMS, plan []float64
	var cols, steps, cells, nodes []float64
	var lastRound, allRounds, sumCols, sumSteps, sumCells, sumAv float64
	for _, p := range per {
		st := p.st
		rounds = append(rounds, float64(st.Rounds))
		verified = append(verified, float64(st.Candidates))
		reused = append(reused, float64(st.CandidatesReused))
		effTau = append(effTau, st.EffectiveTau)
		alloc = append(alloc, p.alloc)
		workers = append(workers, float64(st.Workers))
		verifyMS = append(verifyMS, ms(st.VerifyTime))
		plan = append(plan, ms(st.MinCandTime)*1e3)
		cols = append(cols, float64(st.Verify.ColumnsVisited))
		steps = append(steps, float64(st.Verify.StepDPCalls))
		cells = append(cells, float64(st.Verify.CellsComputed))
		nodes = append(nodes, float64(st.Verify.TrieNodes))
		sumCols += float64(st.Verify.ColumnsVisited)
		sumSteps += float64(st.Verify.StepDPCalls)
		sumCells += float64(st.Verify.CellsComputed)
		sumAv += float64(st.Verify.CellsAvailable)
		for i, rt := range st.RoundTime {
			allRounds += ms(rt)
			if i == len(st.RoundTime)-1 {
				lastRound += ms(rt)
			}
		}
	}
	c.layer("core.query_ms", median(tlat))
	c.layer("trace.overhead_ms", median(tlat)-untracedP50)
	c.layer("core.workers", median(workers))
	c.layer("core.topk_rounds", median(rounds))
	c.layer("core.topk_verified", median(verified))
	c.layer("core.topk_reused", median(reused))
	c.layer("core.topk_last_round_share", ratio(lastRound, allRounds))
	c.layer("core.topk_effective_tau", median(effTau))
	c.layer("core.topk_alloc_mb", median(alloc))
	c.layer("filter.plan_us", median(plan))
	c.layer("verify.ms", median(verifyMS))
	c.layer("verify.ms.EDR", median(verifyMS))
	c.layer("verify.ns_per_column", ratio(sum(verifyMS)*1e6, sumCols))
	c.layer("verify.columns_visited", median(cols))
	c.layer("verify.stepdp_calls", median(steps))
	c.layer("verify.cells_computed", median(cells))
	c.layer("verify.trie_nodes", median(nodes))
	c.layer("verify.cmr", ratio(sumSteps, sumCols))
	c.layer("verify.band_ratio", ratio(sumCells, sumAv))
	return nil
}

// recordRounds lays the top-k rounds QueryStats reports out as child
// spans of the query, back to back from its start.
func recordRounds(log *spanLog, req int32, start int64, d time.Duration, st *core.QueryStats) {
	root := log.add("core.SearchTopKStats", -1, req, start, d)
	at := start
	for i, rt := range st.RoundTime {
		log.add(fmt.Sprintf("core.topk.round%d", i+1), root, req, at, rt)
		at += rt.Nanoseconds()
	}
}
