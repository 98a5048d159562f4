// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks every answer, and prints the end-to-end
// metrics — or, in a separate traced run, the per-layer metrics — as the
// last line of standard output.
//
// Run it from the checkout's root through the wrapper, which builds this
// command and cmd/wedserve from source under .bench_build/:
//
//	bash perfbench/run.sh --workload road-search --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --workload road-search --seed 1 --seconds 12 --trace 1
//
// and the self-tests, which run every workload at tiny scale, with
//
//	cd perfbench && go test ./...
//
// The last line is {"correct", "attempted", "failed", "metrics"}; the line
// before it carries the stamp (seed, git rev, Go version, NumCPU,
// GOMAXPROCS), the workload's shape, and every end-to-end figure the
// workload measures, including the workload-specific ones below. The
// traced run also writes its spans to .bench_build/spans/.
//
// # Workloads
//
// Every input derives from --seed alone (city, corpus, query sample, GPS
// traces, append stream, arrival schedule), and every workload runs
// library or server defaults, so a change of default shows.
//
//   - road-search: the paper's own setting. SanFran-like city at scale 0.3
//     (13,800 trajectories), pointer backend, NewEngine defaults; |Q| = 60,
//     τ-ratio 0.1, rotating through EDR, ERP, SURS, Lev, NetEDR and NetERP,
//     one query in four a departure-window temporal query; a pool of 600
//     distinct queries; closed loop, one client. Shared road segments keep
//     trie fan-out low, and filter, grouping and the cost models all carry
//     weight.
//   - dense-search: 200k synthetic trajectories of 24–56 symbols uniform
//     over 1000 symbols, Levenshtein, compact backend saved and mapped
//     back with index.OpenMapped; |Q| = 8, τ-ratio 0.1, a pool of 128
//     distinct queries; closed loop, one client. Near-root trie fan-out
//     reaches the alphabet and nothing is shared: verification is nearly
//     all of the query, and nearly all of it trie bookkeeping rather than
//     DP cells.
//   - road-topk: the road city under EDR, SearchTopKStats with k = 10,
//     |Q| = 20 and default options, a pool of 120 distinct queries;
//     closed loop, one client. The only workload that drives the top-k
//     round schedule and trie-arena growth. At |Q| = 20 a query still
//     takes four rounds with the last one nearly all of its time, and a
//     run holds about 140 queries; top-k latency varies so much from
//     query to query that the 45 queries of a run at |Q| = 30 left the
//     median spreading 0.16–0.24 from seed to seed.
//   - serve-ingest: the wedserve binary as a child process on loopback,
//     serving the city saved with Workload.Save (-load), EDR, GPS matcher
//     on, -wal-sync interval, folds every 256 appends and checkpoints
//     every 256 KiB of WAL. Open-loop reads on a seeded Poisson schedule
//     over NumCPU connections — 80% /v1/search by symbols, 10%
//     /v1/temporal with a departure window, 10% /v1/search by a raw GPS
//     trace (σ = 10 m) — at the 100 req/s reference rate for 64% of the
//     run, then one step each at 150, 200 and 300 req/s (4% each), with a
//     100 appends/s /v1/append stream beside them; then a closed-loop
//     phase (24%) with one client per connection, after the stream has
//     ended, since a fold landing in so short a window would swing it
//     from run to run. The reference
//     rate is about 40% of the server's closed-loop capacity on 2 CPUs,
//     where the median is not dominated by queueing noise. The only
//     workload through the server's decode, cache, pool, epoch publish,
//     fold, map-matching and WAL paths.
//
// # End-to-end metrics
//
// These come only from the untraced run, and every workload reports them:
//
//   - setup_s (s): median of three set-ups — data generation plus index
//     and engine build, or wedserve start to /healthz ready. Compile time
//     is excluded.
//   - query_p50_ms (ms): median read latency; on road-topk the top-k
//     latency; on serve-ingest timed from each request's due time at the
//     reference rate.
//   - queries_per_s (1/s): closed-loop read throughput.
//   - peak_rss_mb (MB): high-water resident set size of the process
//     serving the reads (the wedserve child on serve-ingest).
//
// The report line adds, where they apply: query_p99_ms (ms; only when a
// run holds at least 1000 reads), topk_p50_ms (ms), serve_max_rps (1/s:
// the highest rate step with no failures, read p99 within 150 ms and no
// growing backlog), rps<N>_p99_ms (ms, per rate step), append_p99_ms
// (ms, from due time), generator_lag_p99_ms (ms: how late the load
// generator sent) and error_rate (failed plus wrong answers ÷ attempted
// operations). Shed (503) and timed-out (504) requests are failures.
//
// # Correctness gate
//
// Each distinct query's answer is computed once, untimed, and
// fingerprinted; every timed and traced answer must match it. Before
// timing, baselines.PlainSW rescans one query per cost model on
// road-search and two on dense-search (over the answer's trajectories
// plus 1000 seeded others), and one road-topk answer is checked against
// PlainSW's best WED per trajectory at the returned effective τ. After a
// serve-ingest run, twelve reads — symbol searches, departure-window
// searches and GPS-trace searches, half of them along appended
// trajectories — must get the answers of a library engine built over the
// base plus every acknowledged append, and each GPS read's resolved
// symbols must equal the library matcher's path. A mismatch counts as a
// failure and makes "correct" false.
//
// # Per-layer metrics and the traced run
//
// With --trace 1 the run uses the same seed and inputs, and makes the same
// calls untraced and traced; trace.overhead_ms is the traced median minus
// the untraced one. Spans
// (name, start, end, parent, request id) are kept in memory and written
// when the run ends; a layer's self time is its span's duration minus its
// child spans'. The benchmark times calls into each module's public
// functions; the program itself carries no tracing.
//
//   - road-search, dense-search: each query is driven one call at a time —
//     filter.BuildPlan, per-shard Plan.Candidates* with the PostingSource
//     lookups timed as index, filter.GroupByTrajectory, then sequential
//     verify.Get/Verify/Results/Put — and its answer must equal
//     Engine.SearchQuery's. The pipeline runs for half the time without
//     spans, then for the other half with them.
//   - road-topk: each query is asked twice in a row, untraced and then
//     traced, with the rounds QueryStats reports laid out as spans; top-k
//     latency varies too much from query to query for two halves to
//     compare.
//   - serve-ingest: the reference schedule and append stream are replayed
//     in-process through server.New(...).ServeHTTP with wedserve's
//     settings. Odd reads run inside a ServeHTTP span and even reads
//     untraced, so both see the same append load. After the replay,
//     Matcher.MatchTrace (GPS reads) and SafeEngine.SearchQuery are
//     called and timed for each traced read, one at a time, and the
//     handler's cost is what remains of its ServeHTTP span.
//
// A layer a workload does not exercise reports 0. Each metric, with the
// end-to-end metric it should move:
//
//   - filter (BuildPlan, Plan.Candidates*, GroupByTrajectory):
//     filter.plan_us, filter.group_us (µs) → query_p50_ms on road-search;
//     filter.candidates, filter.predicted_candidates (count),
//     filter.precision (matches ÷ candidates), filter.share (of traced
//     query time) → query_p50_ms on road-search and dense-search.
//   - index (Backend.Source, PostingSource.Postings/PostingsInWindow):
//     index.lookup_us (µs), index.postings (count), index.share →
//     query_p50_ms on dense-search; index.bytes_per_traj (B) →
//     peak_rss_mb on dense-search.
//   - verify (Get/Verify/Results/Put, Verifier.Stats): verify.ms and
//     verify.ms.<model> (ms), verify.share → queries_per_s on road-search
//     and query_p50_ms on dense-search; verify.ns_per_column (verify time
//     ÷ columns visited, the trie's bookkeeping cost) → query_p50_ms on
//     dense-search; verify.columns_visited, verify.stepdp_calls,
//     verify.cells_computed, verify.trie_nodes (count), verify.cmr and
//     verify.band_ratio → the same, as work counts.
//   - core (Engine.SearchQuery, SearchTopKStats, QueryStats):
//     core.query_ms (traced median; on serve-ingest of the ServeHTTP
//     span); core.workers and
//     core.stepdp_dup_ratio (StepDP calls at default parallelism ÷ the
//     sequential traced pipeline's) → queries_per_s on road-search and
//     the rate-step p99s on serve-ingest; core.topk_rounds, core.topk_verified,
//     core.topk_reused, core.topk_last_round_share,
//     core.topk_effective_tau and core.topk_alloc_mb → query_p50_ms and
//     peak_rss_mb on road-topk.
//   - runtime (runtime/metrics deltas around the untraced half; on
//     road-topk and serve-ingest around the whole traced loop):
//     runtime.alloc_mb_per_op (MB), runtime.gc_cycles,
//     runtime.gc_pause_ms → query_p50_ms on road-topk and the rate-step
//     p99s on serve-ingest.
//   - mapmatch (Matcher.MatchTrace): mapmatch.ms, mapmatch.accuracy (LCS
//     of the matched path against the truth) → query_p50_ms on
//     serve-ingest.
//   - server: server.engine_ms, server.handler_ms (ServeHTTP − match −
//     engine), server.append_us; from /v1/stats server.cache_hit_ratio,
//     server.pool_waited, server.shed, server.snapshot_publishes,
//     server.compactions, server.fold_ms (last fold); and
//     server.generator_lag_ms (p99, from the benchmark's own load
//     generator) → query_p50_ms, the rate-step p99s, append_p99_ms and
//     error_rate on serve-ingest.
//   - wal (/v1/stats and /metrics): wal.fsyncs, wal.bytes_per_append (B),
//     wal.fsync_ms (mean), wal.checkpoints → append_p99_ms on
//     serve-ingest.
//   - error_rate: as on the report line, for the traced run.
package main
