package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"subtraj/internal/index"
	"subtraj/internal/traj"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Times are
// nanoseconds since the log started.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a request's root
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; write dumps them when the run ends. A
// nil log records nothing: start returns -1 and now 0, so a traced code
// path runs untraced with the same calls.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nowLocked()
}

func (l *spanLog) nowLocked() int64 {
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	return time.Since(l.t0).Nanoseconds()
}

// start opens a span and returns its ID.
func (l *spanLog) start(name string, parent, req int32) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: l.nowLocked()})
	return id
}

// end closes span id.
func (l *spanLog) end(id int32) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = l.nowLocked()
}

// add records an already-measured span laid out from start and returns
// its ID: a call timed elsewhere, or the summed duration of many short
// calls, which keeps the log small where one query makes hundreds of
// posting lookups.
func (l *spanLog) add(name string, parent, req int32, start int64, d time.Duration) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: start + d.Nanoseconds()})
	return id
}

// selfTimes returns, per request, each span name's summed self time in
// milliseconds: a span's duration minus its child spans' durations.
func (l *spanLog) selfTimes() map[int32]map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int32]map[string]float64{}
	for i, s := range l.spans {
		m := out[s.Req]
		if m == nil {
			m = map[string]float64{}
			out[s.Req] = m
		}
		m[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// durations returns, per request, each span name's summed duration in
// milliseconds (children included).
func (l *spanLog) durations() map[int32]map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[int32]map[string]float64{}
	for _, s := range l.spans {
		m := out[s.Req]
		if m == nil {
			m = map[string]float64{}
			out[s.Req] = m
		}
		m[s.Name] += float64(s.End-s.Start) / 1e6
	}
	return out
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perRequest collects one span name's per-request values from a
// selfTimes or durations table, in request order; requests without the
// span are skipped.
func perRequest(tab map[int32]map[string]float64, reqs int32, name string) []float64 {
	var out []float64
	for r := int32(0); r < reqs; r++ {
		if v, ok := tab[r][name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// timedSource wraps a posting source and sums the time spent in its
// lookups and the postings they return: the index layer's share of
// candidate generation.
type timedSource struct {
	inner    index.PostingSource
	elapsed  time.Duration
	postings int
}

func (s *timedSource) Postings(q traj.Symbol) []index.Posting {
	t0 := time.Now()
	ps := s.inner.Postings(q)
	s.elapsed += time.Since(t0)
	s.postings += len(ps)
	return ps
}

func (s *timedSource) PostingsInWindow(q traj.Symbol, lo, hi float64) []index.Posting {
	t0 := time.Now()
	ps := s.inner.PostingsInWindow(q, lo, hi)
	s.elapsed += time.Since(t0)
	s.postings += len(ps)
	return ps
}

func (s *timedSource) IntervalOverlaps(id int32, lo, hi float64) bool {
	return s.inner.IntervalOverlaps(id, lo, hi)
}
