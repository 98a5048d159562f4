package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"subtraj"
	"subtraj/internal/core"
	"subtraj/internal/mapmatch"
	"subtraj/internal/server"
	"subtraj/internal/traj"
	"subtraj/internal/wal"
	"subtraj/internal/workload"
)

// handlerTarget serves requests in-process through h.ServeHTTP.
func handlerTarget(h http.Handler) target {
	return func(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
		req := httptest.NewRequestWithContext(ctx, method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// inProcessServer builds in this process what wedserve builds as
// serve-ingest's child: the saved city loaded back, a durable SafeEngine
// under EDR with the WAL in walDir, the GPS matcher, and server.New with
// the server's defaults. The caller closes eng.Durable().
func inProcessServer(in *serveInputs, walDir string) (*server.Server, *server.SafeEngine, *mapmatch.Matcher, error) {
	f, err := os.Open(in.cityPath)
	if err != nil {
		return nil, nil, nil, err
	}
	w, err := workload.Load(f)
	f.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	net := subtraj.NewNetwork(w.Graph)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	eng, _, err := server.OpenDurable(walDir, w.Data, net.EDR(100), server.DurableOptions{
		Sync:            wal.SyncInterval,
		CheckpointBytes: serveCheckpointBytes,
		Logger:          logger,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	eng.SetCompactAppends(serveCompactAppends)
	matcher := mapmatch.New(w.Graph, mapmatch.Config{Sigma: serveMatchSigma, Beta: serveMatchBeta})
	srv := server.New(eng, server.Config{
		MaxSymbol: int32(w.Graph.NumVertices()),
		Matcher:   matcher,
		Logger:    logger,
	})
	return srv, eng, matcher, nil
}

// serveTracer times a traced read's layers: the request through
// Server.ServeHTTP during the replay, then after the replay the same work
// called directly — Matcher.MatchTrace for GPS reads and
// SafeEngine.SearchQuery on the symbols the server resolved. The
// handler's own cost is what remains of ServeHTTP after the two.
type serveTracer struct {
	log      *spanLog
	eng      *server.SafeEngine
	matcher  *mapmatch.Matcher
	accuracy []float64
}

// serve sends r through the handler inside a server.ServeHTTP span
// under request id req.
func (t *serveTracer) serve(ctx context.Context, tgt target, req int32, r serveRead) (int, []byte, error) {
	sp := t.log.start("server.ServeHTTP", -1, req)
	defer t.log.end(sp)
	return tgt(ctx, http.MethodPost, r.path, r.body)
}

// beside makes, under request req's id, the direct calls a served read
// stands for: the map match of a GPS read (scored against the truth) and
// the engine search on the symbols the server searched.
func (t *serveTracer) beside(req int32, r serveRead, body []byte) error {
	q := r.q
	if r.kind == "gps" {
		sp := t.log.start("mapmatch.MatchTrace", -1, req)
		res, err := t.matcher.MatchTrace(r.trace)
		t.log.end(sp)
		if err != nil {
			return err
		}
		path, _ := res.Path()
		t.accuracy = append(t.accuracy, workload.LCSAccuracy(path, r.q))
		var resp struct {
			ResolvedQ []traj.Symbol `json:"resolved_q"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		q = resp.ResolvedQ
	}
	qr := core.Query{Q: q, Tau: t.eng.Threshold(q, tauRatio)}
	if r.kind == "temporal" {
		qr.Temporal.Mode = core.TemporalDeparture
		qr.Temporal.Lo, qr.Temporal.Hi = r.lo, r.hi
	}
	sp := t.log.start("core.SearchQuery", -1, req)
	_, _, err := t.eng.SearchQuery(qr)
	t.log.end(sp)
	return err
}

// traceServe is serve-ingest's traced run: the same city, reference
// schedule and append stream, replayed in-process through
// server.New(...).ServeHTTP with wedserve's settings. Odd reads are
// traced and even reads are not, so both halves see the same append
// load; trace.overhead_ms is the traced ServeHTTP median minus the
// untraced one. The direct layer calls beside each traced read run after
// the replay, one at a time, so they neither delay nor load it.
func traceServe(ctx context.Context, c *collector, in *serveInputs, dir string, conns int) error {
	srv, eng, matcher, err := inProcessServer(in, filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	defer eng.Durable().Close()
	tgt := handlerTarget(srv)
	tr := &serveTracer{log: c.spans, eng: eng, matcher: matcher}
	// A read's request id is its index; appends take the ids after them.
	base := int32(len(in.ref))
	wait := startAppends(ctx, in, func(i int) (int, []byte, error) {
		sp := tr.log.start("server.append", -1, base+int32(i))
		defer tr.log.end(sp)
		return tgt(ctx, http.MethodPost, "/v1/append", in.appends[i].body)
	})

	reads := in.ref
	plainMS := make([]float64, len(reads))
	before := readRuntime()
	outs, _ := openLoop(ctx, len(reads), conns, func(i int) time.Duration { return reads[i].due }, func(i int) (int, []byte, error) {
		if i%2 == 1 {
			return tr.serve(ctx, tgt, int32(i), reads[i])
		}
		t0 := time.Now()
		status, body, err := tgt(ctx, http.MethodPost, reads[i].path, reads[i].body)
		plainMS[i] = ms(time.Since(t0))
		return status, body, err
	})
	c.recordRuntime(before, readRuntime(), len(outs))
	countOutcomes(c, "read", outs)
	appends := wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	var plain, lag []float64
	for i, o := range outs {
		lag = append(lag, ms(o.sent-o.due))
		if !o.ok() {
			continue
		}
		if i%2 == 0 {
			plain = append(plain, plainMS[i])
			continue
		}
		c.attempted++
		if err := tr.beside(int32(i), reads[i], o.body); err != nil {
			c.fail("traced read %d: direct layer calls: %v", i, err)
		}
	}

	dur := c.spans.durations()
	n := base + int32(len(appends))
	served := perRequest(dur, n, "server.ServeHTTP")
	c.layer("server.generator_lag_ms", quantile(lag, 0.99))
	c.layer("core.query_ms", median(served))
	c.layer("trace.overhead_ms", median(served)-median(plain))
	var handler []float64
	for r := int32(0); r < n; r++ {
		d, ok := dur[r]["server.ServeHTTP"]
		if !ok {
			continue
		}
		handler = append(handler, d-dur[r]["mapmatch.MatchTrace"]-dur[r]["core.SearchQuery"])
	}
	c.layer("server.handler_ms", median(handler))
	c.layer("server.engine_ms", median(perRequest(dur, n, "core.SearchQuery")))
	c.layer("server.append_us", median(perRequest(dur, n, "server.append"))*1e3)
	c.layer("mapmatch.ms", median(perRequest(dur, n, "mapmatch.MatchTrace")))
	c.layer("mapmatch.accuracy", mean(tr.accuracy))
	return finishServe(ctx, c, in, appends, tgt)
}
