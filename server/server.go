// Package server exposes a dataset pool of policyscope Sessions over
// HTTP/JSON — the query-service shape of the related inference systems
// (named, parameterized experiments over named precomputed snapshots).
//
//	GET  /datasets           the dataset catalog + pool residency
//	GET  /experiments        the experiment catalog: names, titles, default params
//	GET  /infer              the inference-algorithm catalog
//	POST /run/{name}         run one experiment; body = params JSON
//	POST /infer/{algo}       run one inference algorithm; body = algorithm params JSON
//	POST /whatif             apply a scenario; body = scenario JSON
//	POST /sweep              run a batch sweep; body = sweep request JSON
//	POST /sweep/shard        run one shard of a distributed sweep (internal/dsweep protocol)
//	GET  /healthz            liveness, default-dataset readiness, pool stats
//	GET  /metrics            Prometheus text exposition of the obs registry
//
// Every query endpoint accepts ?dataset=<name> selecting the universe
// it runs against; omitting it uses the catalog's default dataset, and
// an unknown name is a 404 before any work. The pool retains a bounded
// LRU of warmed sessions — the first query against a dataset pays for
// its load (synthetic generation + simulation, or MRT import), later
// queries reuse the memoized artifacts, and concurrent first queries
// against one dataset are deduplicated into a single build.
//
// /run and /whatif accept ?format=json (default) or ?format=text and
// answer any other value 422; a session computes and renders a read-only
// experiment once per parameter set, so a repeat is written from the
// kept bytes. /sweep streams NDJSON. Experiments that need generator
// ground truth return 422 with a "needs ground truth" error when the
// selected dataset is an imported snapshot. Handlers honor the request
// context — a disconnected client cancels its in-flight run, sweep, or
// dataset build.
//
// Every response carries an X-Request-ID header. Appending ?trace=1 to
// any query endpoint additionally appends a per-request NDJSON span
// summary after the normal body (Content-Type becomes
// application/x-ndjson), decomposing the request into dataset-load /
// warm / experiment / render phases.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/infer"
	"github.com/policyscope/policyscope/internal/jsonw"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/obs"
)

// Server handles the HTTP surface over one dataset pool.
type Server struct {
	pool   *dataset.Pool
	mux    *http.ServeMux
	start  time.Time
	limits Limits
	// heavy/light are the per-class admission gates (nil = disabled).
	heavy, light *gate
	// retryAfter is the pre-rendered Retry-After header value for sheds.
	retryAfter string
	// ready flips once the default dataset's study is built (healthz
	// reports it).
	ready atomic.Bool
	// draining flips when graceful shutdown begins; healthz turns 503 so
	// load balancers stop routing here while in-flight requests finish.
	draining atomic.Bool
	// inflightShards counts /sweep/shard requests currently streaming —
	// the load figure policyscoped reports in its fleet heartbeats.
	inflightShards atomic.Int64
}

// New returns an http.Handler serving the pool.
func New(pool *dataset.Pool, opts ...Option) *Server {
	s := &Server{pool: pool, mux: http.NewServeMux(), start: time.Now()}
	for _, opt := range opts {
		opt(s)
	}
	s.limits = s.limits.withDefaults()
	s.heavy = newGate(s.limits.MaxHeavy)
	s.light = newGate(s.limits.MaxLight)
	s.retryAfter = retryAfterSeconds(s.limits.RetryAfter)
	s.handle("GET /datasets", "datasets", classLight, s.handleDatasets)
	s.handle("GET /experiments", "experiments", classLight, s.handleExperiments)
	s.handle("GET /infer", "infer_list", classLight, s.handleInferList)
	s.handle("POST /run/{name}", "run", classHeavy, s.handleRun)
	s.handle("POST /infer/{algo}", "infer", classHeavy, s.handleInfer)
	s.handle("POST /whatif", "whatif", classHeavy, s.handleWhatIf)
	s.handle("POST /sweep", "sweep", classHeavy, s.handleSweep)
	s.handle("POST /sweep/shard", "sweep_shard", classHeavy, s.handleSweepShard)
	s.handle("GET /healthz", "healthz", classNone, s.handleHealthz)
	// The exposition endpoint bypasses the middleware so scraping does
	// not inflate the request counters it reports.
	s.mux.Handle("GET /metrics", obs.Default.Handler())
	// Registration is idempotent by name, so with several servers in one
	// process (tests) the first pool's residency wins — acceptable for a
	// process-wide gauge.
	obs.NewGaugeFunc("policyscope_pool_resident",
		"Datasets currently resident in the session pool.",
		func() float64 { return float64(s.pool.Stats().Resident) })
	return s
}

// handle registers one instrumented route: request/latency/status-class
// metrics with handles pre-resolved per endpoint, an X-Request-ID
// header, optional ?trace=1 span capture, admission control for the
// endpoint's class, panic recovery, the server-side request deadline,
// and a debug-level access log.
func (s *Server) handle(pattern, name string, class endpointClass, h http.HandlerFunc) {
	rt := newRoute(name)
	g := s.gateFor(class)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := obs.NextID()
		w.Header().Set("X-Request-ID", id)
		var tr *obs.Trace
		if r.URL.Query().Get("trace") == "1" {
			var ctx context.Context
			ctx, tr = obs.WithTrace(r.Context(), id)
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, traced: tr != nil}
		rt.requests.Inc()
		if g != nil && !g.enter() {
			rt.shed.Inc()
			s.shed(sw, name)
			rt.observeStatus(http.StatusTooManyRequests)
			return
		}
		mHTTPInflight.Add(1)
		func() {
			defer func() {
				v := recover()
				mHTTPInflight.Add(-1)
				if g != nil {
					g.leave()
				}
				if v == nil {
					return
				}
				if v == http.ErrAbortHandler {
					// A deliberate stream abort, not a bug: net/http
					// expects the sentinel to propagate so it can kill the
					// connection without a log line.
					panic(v)
				}
				rt.panics.Inc()
				slog.Error("handler panic", "id", id, "endpoint", name, "panic", v)
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError,
						fmt.Errorf("internal error (request %s)", id))
				}
			}()
			if class == classHeavy && s.limits.RequestTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.limits.RequestTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
			h(sw, r)
		}()
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		rt.observeStatus(status)
		dur := time.Since(start)
		rt.seconds.Observe(dur.Seconds())
		if tr != nil {
			_ = tr.WriteNDJSON(sw)
		}
		slog.Debug("http request",
			"id", id, "endpoint", name, "method", r.Method,
			"path", r.URL.Path, "status", status,
			"dur_ms", float64(dur.Microseconds())/1000)
	})
}

// SetDraining flips the server into its draining state: /healthz
// answers 503 with draining=true so load balancers pull this replica
// while in-flight requests complete. Wired as the httpd.Config.Draining
// hook by cmd/policyscoped. It is one-way — a draining process is exiting.
func (s *Server) SetDraining() { s.draining.Store(true) }

// InflightShards reports how many /sweep/shard requests are currently
// streaming; policyscoped carries it in fleet heartbeats so the coordinator
// sees per-worker load.
func (s *Server) InflightShards() int { return int(s.inflightShards.Load()) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Warm builds and warms the default dataset's session eagerly
// (optional; queries warm lazily too). Non-default datasets stay cold
// until first queried.
func (s *Server) Warm(ctx context.Context) error {
	err := s.pool.Warm(ctx)
	if err == nil {
		s.ready.Store(true)
	}
	return err
}

// Pool returns the server's dataset pool.
func (s *Server) Pool() *dataset.Pool { return s.pool }

// session resolves the request's dataset (?dataset=, default when
// absent) to a warmed session, writing the error response itself on
// failure: 404 for an unknown name — before any build work — and 500
// for a failed build.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*policyscope.Session, bool) {
	name := r.URL.Query().Get("dataset")
	_, span := obs.StartSpan(r.Context(), "dataset_load")
	sess, err := s.pool.Session(r.Context(), name)
	span.End()
	if err != nil {
		var unknown *dataset.UnknownDatasetError
		if errors.As(err, &unknown) {
			writeError(w, http.StatusNotFound, err)
		} else {
			// A dataset that fails to load is the server's fault (500),
			// unless it is merely cooling down or the request ran out of
			// deadline (503).
			s.writeFailure(w, r, err)
		}
		return nil, false
	}
	if name == "" || name == s.pool.Catalog().Default() {
		s.ready.Store(true)
	}
	return sess, true
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.Datasets())
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, policyscope.Experiments())
}

// wantsText parses ?format= for the endpoints that render a body either
// way: json (the default) or text. Any other value is answered 422 here
// and ok is false.
func wantsText(w http.ResponseWriter, r *http.Request) (text, ok bool) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		return false, true
	case "text":
		return true, true
	default:
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("unknown format %q (want json or text)", format))
		return false, false
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	text, ok := wantsText(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if algo := r.URL.Query().Get("algo"); algo != "" {
		body, err = mergeAlgoQuery(name, algo, body)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	ans, err := sess.AnswerJSON(r.Context(), name, body)
	if err != nil {
		var nf *experiment.NotFoundError
		var pe *experiment.ParamError
		switch {
		// ParamError first: an inference experiment wraps an unknown
		// algorithm's NotFoundError in one, and that is a bad parameter
		// (422), not a missing route (404).
		case errors.As(err, &pe):
			writeError(w, http.StatusUnprocessableEntity, err)
		case errors.As(err, &nf):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, policyscope.ErrNeedsGroundTruth):
			// The experiment exists but the selected dataset cannot
			// answer it: the request, not the server, is at fault.
			writeError(w, http.StatusUnprocessableEntity, err)
		default:
			s.writeFailure(w, r, err)
		}
		return
	}
	// The answer keeps each body it has rendered, so a repeated question
	// is written, not re-encoded.
	_, span := obs.StartSpan(r.Context(), "render")
	defer span.End()
	render, contentType := ans.JSON, "application/json"
	if text {
		render, contentType = ans.Text, "text/plain; charset=utf-8"
	}
	out, err := render()
	if err != nil {
		s.writeFailure(w, r, fmt.Errorf("rendering %s: %w", name, err))
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(out)
}

// mergeAlgoQuery folds a ?algo=<name> query shortcut into the params
// body of the two inference experiments.
func mergeAlgoQuery(name, algo string, body []byte) ([]byte, error) {
	m := map[string]any{}
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, fmt.Errorf("bad params: %w", err)
		}
	}
	switch name {
	case "inferbakeoff":
		m["algos"] = []string{algo}
	case "inferensemble":
		m["algo"] = algo
	default:
		return nil, fmt.Errorf("?algo= applies only to inferbakeoff and inferensemble")
	}
	return json.Marshal(m)
}

func (s *Server) handleInferList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, policyscope.InferAlgorithms())
}

// handleInfer runs one registered inference algorithm against the
// dataset's observed paths. An unknown algorithm is rejected before the
// body is read or any dataset build starts.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	algo := r.PathValue("algo")
	if _, err := infer.Default.Lookup(algo); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	out, err := sess.Infer(r.Context(), algo, body)
	if err != nil {
		var pe *experiment.ParamError
		if errors.As(err, &pe) {
			writeError(w, http.StatusUnprocessableEntity, err)
		} else {
			s.writeFailure(w, r, err)
		}
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = out.Graph.WriteTo(w)
		return
	}
	recs := out.Graph.Records()
	rels := make([]string, len(recs))
	for i, rec := range recs {
		rels[i] = rec.String()
	}
	writeJSON(w, http.StatusOK, struct {
		Algorithm     string                `json:"algorithm"`
		ASes          int                   `json:"ases"`
		Edges         int                   `json:"edges"`
		Relationships []string              `json:"relationships"`
		Posterior     []infer.EdgePosterior `json:"posterior,omitempty"`
	}{out.Algorithm, out.Graph.NumNodes(), out.Graph.NumEdges(), rels, out.Posterior})
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	text, ok := wantsText(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	sc, err := simulate.LoadScenario(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if len(sc.Events) == 0 {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("scenario has no events"))
		return
	}
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	// A study/engine construction failure is the server's fault (500) —
	// except a snapshot-only dataset, which can never run what-ifs
	// (422). Only errors past a healthy base state are
	// scenario-validation 422s.
	_, warmSpan := obs.StartSpan(r.Context(), "warm")
	err = sess.Warm()
	warmSpan.End()
	if err != nil {
		s.writeFailure(w, r, err)
		return
	}
	_, span := obs.StartSpan(r.Context(), "whatif")
	rep, err := sess.WhatIf(r.Context(), sc)
	span.End()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if text {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = policyscope.WriteWhatIf(w, rep, 10)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// SweepRequest is the POST /sweep body: the declarative spec plus
// executor knobs.
type SweepRequest struct {
	Spec sweep.Spec `json:"spec"`
	// Workers is the executor shard count (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// TopShifts bounds each record's per-prefix detail (0 = 3).
	TopShifts int `json:"top_shifts"`
	// TopK bounds the aggregate's critical-scenario lists (0 = 10).
	TopK int `json:"top_k"`
}

// handleSweep expands the spec, then streams one NDJSON line per
// scenario record, a final aggregate line, and a {"sweep_done": ...}
// trailer (the stream-completeness signal, mirroring /sweep/shard's
// shard_done). Spec and expansion errors are reported as ordinary JSON
// errors before any stream output; once streaming starts, a failure is
// reported as a typed {"sweep_error": ...} record in place of the
// trailer — a stream ending in neither was truncated. The request
// context aborts the sweep when the client goes away.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("bad sweep request: %w", err))
		return
	}
	// Structural spec validation is topology-free; reject a malformed
	// spec (naming the offending generator) before paying for a dataset
	// build.
	if err := req.Spec.Validate(); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	_, warmSpan := obs.StartSpan(r.Context(), "warm")
	err = sess.Warm()
	warmSpan.End()
	if err != nil {
		s.writeFailure(w, r, err)
		return
	}
	_, expandSpan := obs.StartSpan(r.Context(), "expand")
	scenarios, err := sess.SweepScenarios(r.Context(), req.Spec)
	expandSpan.End()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	_, sweepSpan := obs.StartSpan(r.Context(), "sweep")
	defer sweepSpan.End()
	records := 0
	agg, err := sess.Sweep(r.Context(), scenarios, sweep.Options{
		Workers: req.Workers, TopShifts: req.TopShifts, TopK: req.TopK,
		OnImpact: func(imp *sweep.Impact) error {
			if err := enc.Encode(imp); err != nil {
				return err
			}
			records++
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		},
	})
	if err != nil {
		// Mid-stream failure: headers are long gone, so a typed error
		// record is the only channel left. When the failure is the
		// client's own disconnect the write goes nowhere — either way
		// the stream ends without sweep_done, which is the truncation
		// signal.
		_ = enc.Encode(struct {
			Err sweep.StreamError `json:"sweep_error"`
		}{sweep.StreamError{Error: err.Error()}})
		return
	}
	_ = enc.Encode(struct {
		Aggregate *sweep.Aggregate `json:"aggregate"`
	}{Aggregate: agg})
	_ = enc.Encode(struct {
		Done sweep.Done `json:"sweep_done"`
	}{sweep.Done{Scenarios: len(scenarios), Records: records}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	status := http.StatusOK
	if draining {
		// 503 pulls the replica from load-balancer rotation while
		// in-flight requests drain; the body says why.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		OK bool `json:"ok"`
		// Ready reports whether the default dataset has been built.
		Ready bool `json:"ready"`
		// Draining is true once graceful shutdown has begun: the
		// listener still answers, but no new work should be routed here.
		Draining      bool          `json:"draining"`
		UptimeSeconds float64       `json:"uptime_seconds"`
		Pool          dataset.Stats `json:"pool"`
	}{OK: !draining, Ready: s.ready.Load(), Draining: draining,
		UptimeSeconds: time.Since(s.start).Seconds(), Pool: s.pool.Stats()})
}

// writeJSON answers status with v, two-space indented. The body is
// encoded before the header goes out, into buffers that outlive the
// request (internal/jsonw), and written in one Write; a value that does
// not encode is answered 500 with the usual error body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	err := jsonw.Encode(v, func(body []byte) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(body)
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}

// writeFailure maps a post-validation failure to its response status.
// A dataset cooling down after a failed build and a request that ran
// out of its server-side deadline are transient (503 + Retry-After);
// everything else is a genuine 500.
func (s *Server) writeFailure(w http.ResponseWriter, r *http.Request, err error) {
	var cool *dataset.BuildCooldownError
	switch {
	case errors.As(err, &cool):
		w.Header().Set("Retry-After", retryAfterSeconds(cool.RetryAfter))
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(r.Context().Err(), context.DeadlineExceeded):
		w.Header().Set("Retry-After", s.retryAfter)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("request deadline exceeded: %w", err))
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
