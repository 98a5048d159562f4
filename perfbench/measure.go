package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timeSetup runs build reps times and returns the last build, which the
// run keeps, with the median duration in seconds. release, when not nil,
// frees each earlier build before the next one starts, so repetitions do
// not stack up in memory; on an error nothing is left for the caller to
// release.
func timeSetup[T any](ctx context.Context, reps int, build func() (T, error), release func(T) error) (T, float64, error) {
	var (
		v     T
		zero  T
		times []float64
		err   error
	)
	for r := 0; r < reps; r++ {
		if r > 0 && release != nil {
			if err := release(v); err != nil {
				return zero, 0, err
			}
		}
		v = zero
		if err := ctx.Err(); err != nil {
			return zero, 0, err
		}
		runtime.GC()
		start := time.Now()
		v, err = build()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return v, median(times), nil
}

// closedLoop calls do(i) for i = 0, 1, 2, ... one at a time until budget
// has passed and returns the latencies do reports, in milliseconds, with
// the wall time they cover. do times only the operation under test, so
// answer checks stay outside the figure. The loop stops early only when
// ctx is done.
func closedLoop(ctx context.Context, budget time.Duration, do func(i int) time.Duration) (lat []float64, wall time.Duration) {
	start := time.Now()
	for i := 0; ctx.Err() == nil && time.Since(start) < budget; i++ {
		lat = append(lat, ms(do(i)))
	}
	return lat, time.Since(start)
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes float64
	gcCycles   float64
	gcPauseSec float64
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.gcPauseSec = histSum(s[2].Value.Float64Histogram())
	}
	return out
}

// histSum estimates a runtime histogram's total from bucket midpoints
// (open-ended buckets use their finite edge).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(n) * mid
	}
	return sum
}

// recordRuntime reports the runtime deltas of a timed loop of ops
// operations as the runtime.* layer metrics.
func (c *collector) recordRuntime(before, after runtimeSample, ops int) {
	if ops < 1 {
		ops = 1
	}
	c.layer("runtime.alloc_mb_per_op", (after.allocBytes-before.allocBytes)/float64(ops)/(1<<20))
	c.layer("runtime.gc_cycles", after.gcCycles-before.gcCycles)
	c.layer("runtime.gc_pause_ms", (after.gcPauseSec-before.gcPauseSec)*1e3)
}

// peakRSSMB reads a process's high-water resident set size from
// /proc/<pid>/status ("self" for this process).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line for pid %s", pid)
}

// recordLatency reports the latency figures of a set of reads: the
// median as query_p50_ms, and the p99 on the report line when at least
// 1000 reads back it (ten samples beyond it).
func (c *collector) recordLatency(lat []float64) {
	c.endToEnd("query_p50_ms", median(lat))
	c.report("reads", "count", float64(len(lat)))
	if len(lat) >= 1000 {
		c.report("query_p99_ms", "ms", quantile(lat, 0.99))
	}
}
