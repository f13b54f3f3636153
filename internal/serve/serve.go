// Package serve implements the gpumech-serve HTTP daemon: model
// evaluations as a long-lived service instead of a fork-per-query CLI.
// The paper's pitch — interval modeling ~97,000× faster than cycle-level
// simulation (Table IV) — only pays off operationally when the traced
// kernels stay resident and each query reuses them; a Server keeps one
// gpumech.Session per (kernel, blocks) and serves evaluations from the
// session's shared prep memo.
//
// Endpoints:
//
//	POST /v1/evaluate   model evaluation; body {"kernel","policy","warps",
//	                    "mshrs","bw","blocks","level","oracle"}; the
//	                    response is byte-identical to `gpumech-run -json`
//	                    for the same parameters (both go through
//	                    internal/runjson)
//	GET  /v1/kernels    the bundled kernel catalogue with per-kernel
//	                    instruction counts and default grids
//	                    (?version=1 preserves the original shape)
//	POST /v1/lint       static performance advisor; body {"kernel",
//	                    "blocks"}; runs internal/check/perf over the
//	                    program text alone — no trace, no simulation —
//	                    and answers the predicted dominant bottleneck,
//	                    CPI sketch, occupancy, and findings
//	POST /v1/sweeps     start an asynchronous design-space sweep
//	                    (internal/dse spec in the body); answers 202
//	                    with a job ID
//	GET  /v1/sweeps/{id} job state, progress, partial points while
//	                    running, the full result document once done
//	DELETE /v1/sweeps/{id} cancel the job between evaluation points
//	GET  /metrics       Prometheus text exposition (internal/obs/promtext)
//	GET  /healthz       liveness: 200 while the process runs
//	GET  /readyz        readiness: 200, or 503 once draining;
//	                    ?verbose=1 adds a JSON latency/SLO summary
//	                    (p50/p90/p99 from the request histogram, shed and
//	                    error counts, per-stage means)
//	GET  /debug/flightrec  the flight recorder: the N most recent and N
//	                    slowest requests with per-stage span trees;
//	                    ?id=<req id> returns one record, and
//	                    &format=chrome renders it as a Chrome trace
//	                    (Trace Event JSON for Perfetto/chrome://tracing)
//
// Production behaviours: bounded in-flight evaluation concurrency with
// 429 load-shedding, per-request timeouts (504), structured JSON request
// logs (log/slog) carrying a per-request ID that is also threaded into
// the request's obs span tree, per-route and per-stage latency
// histograms, an always-on bounded flight recorder for post-hoc latency
// forensics, and a drain switch the binary flips on SIGINT/SIGTERM so
// load balancers stop routing before Shutdown (logging one final latency
// summary so short-lived runs leave a record without a scrape).
package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gpumech"
	"gpumech/internal/check"
	"gpumech/internal/check/perf"
	"gpumech/internal/emu"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/obs/chrometrace"
	"gpumech/internal/obs/promtext"
	"gpumech/internal/obs/runtimecollector"
	"gpumech/internal/parallel"
	"gpumech/internal/runjson"
)

// Config parameterizes a Server. The zero value is usable: defaults are
// applied by New.
type Config struct {
	// Workers bounds the goroutines each evaluation fans out across
	// warps (0: the gpumech default — GPUMECH_WORKERS, then GOMAXPROCS).
	Workers int

	// MaxInFlight bounds concurrently running evaluations; beyond it
	// /v1/evaluate sheds load with 429 (default 64).
	MaxInFlight int

	// RequestTimeout bounds one evaluation; past it the request gets 504
	// while the abandoned evaluation finishes in the background, still
	// holding its in-flight slot (default 30s).
	RequestTimeout time.Duration

	// MaxSessions caps the (kernel, blocks) session cache. Kernels are
	// finite but blocks is client-controlled; the cap keeps a scanning
	// client from growing the cache without bound. At the cap a request
	// for a new session evicts the least-recently-used idle session; 503
	// remains only as the backstop when every cached session is busy
	// (default 256).
	MaxSessions int

	// MaxSweepJobs bounds the async sweep job table. When full, POST
	// /v1/sweeps evicts the oldest finished job; with every slot still
	// live it sheds the request with 429 (default 32).
	MaxSweepJobs int

	// MaxRunningSweeps bounds concurrently evaluating sweeps; jobs past
	// it wait in the queued state (default 2).
	MaxRunningSweeps int

	// TraceCacheDir, when non-empty, points sessions at a directory of
	// reusable columnar trace files (gpumech.WithTraceCache): restarts
	// and new sessions skip re-emulation for traces already on disk.
	TraceCacheDir string

	// ProfileStoreDir, when non-empty, points sessions at a
	// content-addressed disk store of structural prep
	// (gpumech.WithProfileStore): a restarted daemon answers its first
	// /v1/evaluate for a previously-seen key without re-tracing or
	// re-simulating, and any number of daemons can share one directory.
	ProfileStoreDir string

	// KernelProbeBlocks overrides the grid size of the one-off kernel
	// census backing GET /v1/kernels instruction counts (0: each
	// kernel's default grid). Tests use a small value to keep the
	// census fast; production leaves the default.
	KernelProbeBlocks int

	// FlightRecorderSize bounds each flight-recorder board: the N most
	// recent and N slowest requests kept for /debug/flightrec (default
	// 32; negative disables the recorder entirely).
	FlightRecorderSize int

	// SLOTargetP99 is the p99 request-latency objective reported by
	// /readyz?verbose=1. Zero means no target: the summary still carries
	// the percentiles, just no ok/violated verdict.
	SLOTargetP99 time.Duration

	// Logger receives one structured record per request (default:
	// slog.Default).
	Logger *slog.Logger

	// Metrics receives server and pipeline instruments and backs
	// /metrics. Nil disables metrics (the endpoint serves an empty but
	// valid exposition).
	Metrics *obs.Registry

	// Tracer, when non-nil, records one span tree per request with the
	// evaluation's pipeline spans nested inside. Spans accumulate for
	// the tracer's lifetime, so this is for bounded diagnostic runs
	// (gpumech-serve wires it to -trace-out), not always-on production.
	Tracer *obs.Tracer

	// Runtime, when non-nil, is refreshed on every /metrics scrape.
	Runtime *runtimecollector.Collector
}

// Server routes and instruments requests. Create with New; it is safe
// for concurrent use.
type Server struct {
	cfg  Config
	log  *slog.Logger
	base *obs.Observer
	mux  *http.ServeMux

	sem      chan struct{}
	draining atomic.Bool

	idPrefix string
	idSeq    atomic.Uint64

	mu         sync.Mutex
	sessions   map[sessionKey]*sessionEntry
	sessionSeq uint64 // LRU clock; incremented under mu

	sweepMu    sync.Mutex
	sweeps     map[string]*sweepJob
	sweepOrder []string // insertion order, for oldest-terminal eviction
	sweepSem   chan struct{}
	sweepSeq   atomic.Uint64

	censusOnce sync.Once
	census     map[string]kernelCensus
	censusErr  error

	flight *obs.FlightRecorder

	requests      *obs.Counter
	shed          *obs.Counter
	timeouts      *obs.Counter
	evicted       *obs.Counter
	inflight      *obs.Gauge
	cached        *obs.Gauge
	sweepsRunning *obs.Gauge
	sweepsQueued  *obs.Gauge
	latency       *obs.Histogram
	evaluate      *obs.Histogram
	sweepDuration *obs.Histogram
	stageDecode   *obs.Histogram
	stageSession  *obs.Histogram
	stageEstimate *obs.Histogram
	stageEncode   *obs.Histogram
	statusCls     [6]*obs.Counter // index by status/100; [0] unused
}

// errCacheFull marks session-cache exhaustion with every cached session
// busy: a capacity condition (503), not a caller mistake (400).
var errCacheFull = errors.New("session cache full")

type sessionKey struct {
	kernel string
	blocks int
}

// sessionEntry is one cached session. refs and lastUse are guarded by
// Server.mu: refs counts the requests currently holding the entry (a
// builder holds a ref for the whole build, so an entry mid-build is
// never evicted), and lastUse orders idle entries for LRU eviction.
type sessionEntry struct {
	once sync.Once
	sess *gpumech.Session
	err  error

	refs    int
	lastUse uint64
}

// New builds a Server from cfg, applying defaults for unset fields.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 256
	}
	if cfg.MaxSweepJobs <= 0 {
		cfg.MaxSweepJobs = 32
	}
	if cfg.MaxRunningSweeps <= 0 {
		cfg.MaxRunningSweeps = 2
	}
	if cfg.FlightRecorderSize == 0 {
		cfg.FlightRecorderSize = 32
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		base:     obs.NewObserver(cfg.Metrics, cfg.Tracer),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		idPrefix: newIDPrefix(),
		sessions: make(map[sessionKey]*sessionEntry),
		sweeps:   make(map[string]*sweepJob),
		sweepSem: make(chan struct{}, cfg.MaxRunningSweeps),
		flight:   obs.NewFlightRecorder(cfg.FlightRecorderSize),

		requests:      cfg.Metrics.Counter("serve.requests"),
		shed:          cfg.Metrics.Counter("serve.shed"),
		timeouts:      cfg.Metrics.Counter("serve.timeouts"),
		evicted:       cfg.Metrics.Counter("serve.sessions.evicted"),
		inflight:      cfg.Metrics.Gauge("serve.inflight"),
		cached:        cfg.Metrics.Gauge("serve.sessions.cached"),
		sweepsRunning: cfg.Metrics.Gauge("serve.sweeps.running"),
		sweepsQueued:  cfg.Metrics.Gauge("serve.sweeps.queued"),
		latency:       cfg.Metrics.Histogram("serve.request.seconds"),
		evaluate:      cfg.Metrics.Histogram("serve.evaluate.seconds"),
		sweepDuration: cfg.Metrics.Histogram("serve.sweep.seconds"),
		stageDecode:   cfg.Metrics.Histogram("serve.stage.decode.seconds"),
		stageSession:  cfg.Metrics.Histogram("serve.stage.session.seconds"),
		stageEstimate: cfg.Metrics.Histogram("serve.stage.estimate.seconds"),
		stageEncode:   cfg.Metrics.Histogram("serve.stage.encode.seconds"),
	}
	for c := 1; c < len(s.statusCls); c++ {
		s.statusCls[c] = cfg.Metrics.Counter(fmt.Sprintf("serve.status.%dxx", c))
	}

	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/evaluate", s.instrument("evaluate", s.handleEvaluate))
	s.mux.Handle("GET /v1/kernels", s.instrument("kernels", s.handleKernels))
	s.mux.Handle("POST /v1/lint", s.instrument("lint", s.handleLint))
	s.mux.Handle("POST /v1/sweeps", s.instrument("sweeps.create", s.handleSweepCreate))
	s.mux.Handle("GET /v1/sweeps/{id}", s.instrument("sweeps.get", s.handleSweepGet))
	s.mux.Handle("DELETE /v1/sweeps/{id}", s.instrument("sweeps.cancel", s.handleSweepCancel))
	s.mux.Handle("GET /metrics", promtext.Handler(cfg.Metrics, func() {
		cfg.Runtime.Collect()
		s.mu.Lock()
		s.cached.Set(float64(len(s.sessions)))
		s.mu.Unlock()
	}))
	s.mux.Handle("GET /debug/flightrec", s.instrument("flightrec", s.handleFlightRec))
	s.mux.Handle("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	s.mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	return s
}

// newIDPrefix draws a per-instance entropy prefix so request IDs from
// different daemon instances never collide in aggregated logs.
func newIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// work. In-flight and already-routed requests still complete; pair with
// http.Server.Shutdown for the connection-level drain.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// requestState carries per-request bookkeeping from the instrumentation
// middleware into handlers (via context): the request ID, the request's
// span, extra attributes handlers want logged, and the identity fields
// the flight recorder keeps (kernel and profile key, set by the evaluate
// handler). It is only touched by the handler goroutine.
type requestState struct {
	id         string
	span       *obs.Span
	attrs      []slog.Attr
	kernel     string
	profileKey string
}

type ctxKey struct{}

func stateFrom(ctx context.Context) *requestState {
	st, _ := ctx.Value(ctxKey{}).(*requestState)
	return st
}

// statusWriter captures the response status for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// probeRoutes are health/introspection endpoints: their requests are
// instrumented like any other but kept out of the flight recorder, so a
// load balancer's probe loop cannot wash real traffic out of the ring.
var probeRoutes = map[string]bool{"healthz": true, "readyz": true, "flightrec": true}

// instrument wraps a handler with the request lifecycle: ID allocation,
// span (tracer-attached when tracing is on, detached otherwise so the
// flight recorder still gets a per-stage tree), status capture, total and
// per-route latency histograms, the flight record, and one structured
// log record.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	routeLatency := s.cfg.Metrics.Histogram("serve.route." + route + ".seconds")
	recorded := !probeRoutes[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st := &requestState{id: fmt.Sprintf("%s-%d", s.idPrefix, s.idSeq.Add(1))}
		st.span = s.base.StartSpan("http." + route)
		if st.span == nil && s.flight != nil && recorded {
			// Tracing is off but the flight recorder wants the stage
			// tree: give the request a detached root span.
			st.span = obs.NewRootSpan("http." + route)
		}
		st.span.SetStr("req.id", st.id)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(context.WithValue(r.Context(), ctxKey{}, st)))

		elapsed := time.Since(start)
		st.span.SetInt("status", int64(sw.status))
		st.span.End()
		s.requests.Inc()
		s.latency.Observe(elapsed.Seconds())
		routeLatency.Observe(elapsed.Seconds())
		if cls := sw.status / 100; cls >= 1 && cls < len(s.statusCls) {
			s.statusCls[cls].Inc()
		}
		if s.flight != nil && recorded {
			s.flight.Add(obs.FlightRecord{
				ID:         st.id,
				Route:      route,
				Kernel:     st.kernel,
				ProfileKey: st.profileKey,
				Status:     sw.status,
				Start:      start,
				Seconds:    elapsed.Seconds(),
				Span:       st.span.Record(),
			})
		}

		level := slog.LevelInfo
		switch {
		case sw.status >= 500:
			level = slog.LevelError
		case sw.status >= 400:
			level = slog.LevelWarn
		}
		attrs := append([]slog.Attr{
			slog.String("id", st.id),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("latency", elapsed),
		}, st.attrs...)
		s.log.LogAttrs(r.Context(), level, "request", attrs...)
	})
}

// EvaluateRequest is the POST /v1/evaluate body. Zero values mean the
// gpumech-run defaults: policy rr, level full, baseline warps/MSHRs/
// bandwidth, 3× occupancy blocks.
type EvaluateRequest struct {
	Kernel string  `json:"kernel"`
	Policy string  `json:"policy"`
	Warps  int     `json:"warps"`
	MSHRs  int     `json:"mshrs"`
	BW     float64 `json:"bw"`
	Blocks int     `json:"blocks"`
	Level  string  `json:"level"`
	Oracle bool    `json:"oracle"`
}

// parseEvaluate validates the request body into evaluation inputs.
func parseEvaluate(r *http.Request) (req EvaluateRequest, pol gpumech.Policy, lvl gpumech.Level, err error) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err = dec.Decode(&req); err != nil {
		return req, pol, lvl, fmt.Errorf("decoding body: %w", err)
	}
	if req.Kernel == "" {
		return req, pol, lvl, fmt.Errorf("missing field %q", "kernel")
	}
	if req.Warps < 0 || req.MSHRs < 0 || req.BW < 0 || req.Blocks < 0 {
		return req, pol, lvl, fmt.Errorf("warps, mshrs, bw and blocks must be non-negative")
	}
	if req.Policy == "" {
		req.Policy = "rr"
	}
	if req.Level == "" {
		req.Level = "full"
	}
	if pol, err = gpumech.ParsePolicy(req.Policy); err != nil {
		return req, pol, lvl, err
	}
	lvl, err = gpumech.ParseLevel(req.Level)
	return req, pol, lvl, err
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	st := stateFrom(r.Context())
	decodeStart := time.Now()
	dsp := st.span.Child("decode")
	req, pol, lvl, err := parseEvaluate(r)
	dsp.End()
	s.stageDecode.Observe(time.Since(decodeStart).Seconds())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st.kernel = req.Kernel
	st.attrs = append(st.attrs,
		slog.String("kernel", req.Kernel),
		slog.String("policy", req.Policy),
		slog.String("level", req.Level),
		slog.Int("warps", req.Warps),
		slog.Int("mshrs", req.MSHRs),
		slog.Int("blocks", req.Blocks),
		slog.Float64("bw", req.BW),
		slog.Bool("oracle", req.Oracle),
	)
	st.span.SetStr("kernel", req.Kernel)
	st.span.SetStr("policy", req.Policy)

	select {
	case s.sem <- struct{}{}:
	default:
		s.shed.Inc()
		writeError(w, http.StatusTooManyRequests, fmt.Errorf(
			"server at capacity (%d evaluations in flight)", cap(s.sem)))
		return
	}
	s.inflight.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	type outcome struct {
		body   []byte
		status int
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			<-s.sem
			s.inflight.Add(-1)
		}()
		start := time.Now()
		body, status, err := s.runEvaluation(req, pol, lvl, st)
		s.evaluate.Observe(time.Since(start).Seconds())
		done <- outcome{body: body, status: status, err: err}
	}()

	select {
	case out := <-done:
		if out.err != nil {
			writeError(w, out.status, out.err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out.body)
	case <-ctx.Done():
		s.timeouts.Inc()
		if r.Context().Err() != nil {
			// The client went away; nobody reads this response, but the
			// status still lands in the log record.
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("client cancelled"))
			return
		}
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf(
			"evaluation exceeded the %s request timeout", s.cfg.RequestTimeout))
	}
}

// runEvaluation resolves the session and produces the response document.
// It runs on the evaluation goroutine; the request's span is threaded in
// so pipeline spans nest under the request.
func (s *Server) runEvaluation(req EvaluateRequest, pol gpumech.Policy, lvl gpumech.Level, st *requestState) ([]byte, int, error) {
	sessionStart := time.Now()
	ssp := st.span.Child("session")
	sess, release, err := s.acquireSession(req.Kernel, req.Blocks)
	ssp.End()
	s.stageSession.Observe(time.Since(sessionStart).Seconds())
	if err != nil {
		if errors.Is(err, errCacheFull) {
			return nil, http.StatusServiceUnavailable, err
		}
		return nil, http.StatusBadRequest, err
	}
	// Hold the session for the whole evaluation: a held entry is never
	// evicted, so an estimate can't race a concurrent eviction.
	defer release()
	cfg := gpumech.DefaultConfig()
	if req.Warps > 0 {
		cfg = cfg.WithWarps(req.Warps)
	}
	if req.MSHRs > 0 {
		cfg = cfg.WithMSHRs(req.MSHRs)
	}
	if req.BW > 0 {
		cfg = cfg.WithBandwidth(req.BW)
	}
	st.profileKey = cfg.ProfileKey().String()
	st.span.SetStr("profileKey", st.profileKey)

	estimateStart := time.Now()
	view := sess.Observing(s.base.WithSpan(st.span))
	est, err := view.EstimateWith(cfg, pol, lvl, gpumech.Clustering)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	var orc *gpumech.OracleResult
	if req.Oracle {
		if orc, err = view.Oracle(cfg, pol); err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}
	s.stageEstimate.Observe(time.Since(estimateStart).Seconds())

	encodeStart := time.Now()
	esp := st.span.Child("encode")
	var buf bytes.Buffer
	encErr := runjson.Encode(&buf, runjson.Result(sess, pol, lvl, est, orc))
	esp.End()
	s.stageEncode.Observe(time.Since(encodeStart).Seconds())
	if encErr != nil {
		return nil, http.StatusInternalServerError, encErr
	}
	return buf.Bytes(), http.StatusOK, nil
}

// acquireSession returns the cached session for (kernel, blocks),
// tracing the kernel on first use, plus a release the caller must invoke
// when the request is done with it. Unknown kernels fail fast without
// consuming a cache slot; concurrent first requests trace once
// (sync.Once). At MaxSessions a new key evicts the least-recently-used
// idle session; only when every cached session is held by an in-flight
// request does the cache answer errCacheFull (503) — the concurrent-
// build backstop.
func (s *Server) acquireSession(kernel string, blocks int) (*gpumech.Session, func(), error) {
	key := sessionKey{kernel: kernel, blocks: blocks}
	s.mu.Lock()
	ent := s.sessions[key]
	if ent == nil {
		if len(s.sessions) >= s.cfg.MaxSessions && !s.evictIdleLocked() {
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("%w (%d kernel/blocks variants, all busy)",
				errCacheFull, s.cfg.MaxSessions)
		}
		ent = &sessionEntry{}
		s.sessions[key] = ent
	}
	ent.refs++
	s.sessionSeq++
	ent.lastUse = s.sessionSeq
	s.mu.Unlock()

	ent.once.Do(func() {
		opts := []gpumech.Option{gpumech.WithObserver(s.base)}
		if s.cfg.TraceCacheDir != "" {
			opts = append(opts, gpumech.WithTraceCache(s.cfg.TraceCacheDir))
		}
		if s.cfg.ProfileStoreDir != "" {
			opts = append(opts, gpumech.WithProfileStore(s.cfg.ProfileStoreDir))
		}
		if s.cfg.Workers > 0 {
			opts = append(opts, gpumech.WithWorkers(s.cfg.Workers))
		}
		if blocks > 0 {
			opts = append(opts, gpumech.WithBlocks(blocks))
		}
		ent.sess, ent.err = gpumech.NewSession(kernel, opts...)
	})
	if ent.err != nil {
		// Release the slot: a typo'd kernel name must not occupy the
		// cache, and the next request re-checks the name.
		s.mu.Lock()
		ent.refs--
		if s.sessions[key] == ent {
			delete(s.sessions, key)
		}
		s.mu.Unlock()
		return nil, nil, ent.err
	}
	release := func() {
		s.mu.Lock()
		ent.refs--
		s.mu.Unlock()
	}
	return ent.sess, release, nil
}

// evictIdleLocked drops the least-recently-used idle session (refs == 0)
// to make room for a new one. Caller holds s.mu. Returns false when
// every entry is held by an in-flight request.
func (s *Server) evictIdleLocked() bool {
	var victimKey sessionKey
	var victim *sessionEntry
	for k, e := range s.sessions {
		if e.refs > 0 {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim, victimKey = e, k
		}
	}
	if victim == nil {
		return false
	}
	delete(s.sessions, victimKey)
	s.evicted.Inc()
	return true
}

// kernelCensus is the per-kernel metadata the v2 catalogue adds: the
// instruction count of one trace at the census grid size.
type kernelCensus struct {
	insts  int64
	blocks int
}

// kernelCensusAll traces every bundled kernel once (in parallel, on
// first use) to count its warp-instructions. The grid is each kernel's
// default unless Config.KernelProbeBlocks overrides it; the reported
// blocks value is the grid actually traced.
func (s *Server) kernelCensusAll() (map[string]kernelCensus, error) {
	s.censusOnce.Do(func() {
		names := kernels.Names()
		out := make([]kernelCensus, len(names))
		workers := parallel.Workers(s.cfg.Workers)
		s.censusErr = parallel.ForEach(workers, len(names), func(i int) error {
			info, err := kernels.Get(names[i])
			if err != nil {
				return err
			}
			blocks := s.cfg.KernelProbeBlocks
			if blocks <= 0 {
				blocks = kernels.DefaultBlocks(info.WarpsPerBlock)
			}
			l, err := censusLaunch(info, blocks)
			if err != nil {
				return fmt.Errorf("census of %s: %w", names[i], err)
			}
			tr, err := emu.Run(l)
			if err != nil {
				return fmt.Errorf("census of %s: %w", names[i], err)
			}
			out[i] = kernelCensus{insts: tr.TotalInsts(), blocks: blocks}
			return nil
		})
		if s.censusErr == nil {
			s.census = make(map[string]kernelCensus, len(names))
			for i, name := range names {
				s.census[name] = out[i]
			}
		}
	})
	return s.census, s.censusErr
}

// censusLaunch builds the emulator launch that counts one kernel's
// warp-instructions. The census already runs one kernel per worker, so
// the emulator runs each kernel's blocks sequentially rather than
// nesting block ranges inside the fan-out.
func censusLaunch(info *kernels.Info, blocks int) (emu.Launch, error) {
	l, err := info.EmuLaunch(kernels.Scale{Blocks: blocks, Seed: 1}, 128)
	l.Workers = 1
	return l, err
}

// handleKernels serves the kernel catalogue. The default (version 2)
// shape adds per-kernel instruction counts and the grid they were
// traced at; ?version=1 preserves the original shape exactly for older
// clients.
func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	type kernelDoc struct {
		Name          string `json:"name"`
		Suite         string `json:"suite"`
		Description   string `json:"description"`
		ControlDiv    bool   `json:"controlDivergent"`
		MemDivergence string `json:"memDivergence"`
		WriteHeavy    bool   `json:"writeHeavy"`
		WarpsPerBlock int    `json:"warpsPerBlock"`

		// v2 additions; omitted entirely from the version=1 shape.
		Instructions  int64 `json:"instructions,omitempty"`
		DefaultBlocks int   `json:"defaultBlocks,omitempty"`
	}
	v1 := r.URL.Query().Get("version") == "1"
	var census map[string]kernelCensus
	if !v1 {
		var err error
		if census, err = s.kernelCensusAll(); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	infos := gpumech.KernelInfos()
	docs := make([]kernelDoc, 0, len(infos))
	for _, k := range infos {
		doc := kernelDoc{
			Name:          k.Name,
			Suite:         k.Suite,
			Description:   k.Description,
			ControlDiv:    k.ControlDiv,
			MemDivergence: k.MemDivergence,
			WriteHeavy:    k.WriteHeavy,
			WarpsPerBlock: k.WarpsPerBlock,
		}
		if c, ok := census[k.Name]; ok {
			doc.Instructions = c.insts
			doc.DefaultBlocks = c.blocks
		}
		docs = append(docs, doc)
	}
	out := map[string]any{"count": len(docs), "kernels": docs}
	if !v1 {
		out["schemaVersion"] = 2
	}
	w.Header().Set("Content-Type", "application/json")
	runjson.Encode(w, out)
}

// LintRequest is the POST /v1/lint body. Blocks 0 means the kernel's
// paper-default grid (the same scale gpumech-lint perf uses).
type LintRequest struct {
	Kernel string `json:"kernel"`
	Blocks int    `json:"blocks"`
}

// lintSchema versions the /v1/lint response shape.
const lintSchema = 1

// handleLint serves the static performance advisor. The endpoint is
// purely static — it builds the program and analyzes its text, with no
// emulation and no model run — so it answers in microseconds and never
// takes an evaluation slot.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	st := stateFrom(r.Context())
	dsp := st.span.Child("decode")
	var req LintRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	dsp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if req.Kernel == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing field %q", "kernel"))
		return
	}
	if req.Blocks < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("blocks must be non-negative"))
		return
	}
	st.kernel = req.Kernel
	st.attrs = append(st.attrs,
		slog.String("kernel", req.Kernel),
		slog.Int("blocks", req.Blocks))
	st.span.SetStr("kernel", req.Kernel)

	asp := st.span.Child("advise")
	ad, blocks, err := adviseKernel(req.Kernel, req.Blocks)
	asp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	runjson.Encode(w, struct {
		Schema int `json:"schema"`
		Blocks int `json:"blocks"`
		*perf.Advice
	}{lintSchema, blocks, ad})
}

// adviseKernel builds the named bundled kernel at the requested grid
// (0 = its paper default) and runs the static advisor.
func adviseKernel(name string, blocks int) (*perf.Advice, int, error) {
	info, err := kernels.Get(name)
	if err != nil {
		return nil, 0, err
	}
	if blocks == 0 {
		blocks = kernels.DefaultBlocks(info.WarpsPerBlock)
	}
	l, err := info.Build(kernels.Scale{Blocks: blocks, Seed: 1})
	if err != nil {
		return nil, 0, err
	}
	ad, err := perf.Advise(l.Prog, perf.Options{Launch: check.LaunchInfo{
		Blocks:          l.Blocks,
		ThreadsPerBlock: l.ThreadsPerBlock,
		SharedBytes:     l.SharedBytes,
	}})
	if err != nil {
		return nil, 0, err
	}
	return ad, blocks, nil
}

// sloSummary is the /readyz?verbose=1 document: the service's latency
// posture at a glance, computed from the same histograms /metrics
// exports so a dashboard and the endpoint can never disagree.
type sloSummary struct {
	Status   string  `json:"status"` // "ready" or "draining"
	Requests int64   `json:"requests"`
	Shed     int64   `json:"shed"`
	Timeouts int64   `json:"timeouts"`
	Latency  latency `json:"latency"`
	Stages   stages  `json:"stages"`
	SLO      *slo    `json:"slo,omitempty"`
}

type latency struct {
	Count      int64   `json:"count"`
	P50Seconds float64 `json:"p50Seconds"`
	P90Seconds float64 `json:"p90Seconds"`
	P99Seconds float64 `json:"p99Seconds"`
	MaxSeconds float64 `json:"maxSeconds"`
}

// stages carries the mean seconds per serve-level pipeline stage.
type stages struct {
	Decode   float64 `json:"decodeMeanSeconds"`
	Session  float64 `json:"sessionMeanSeconds"`
	Estimate float64 `json:"estimateMeanSeconds"`
	Encode   float64 `json:"encodeMeanSeconds"`
}

type slo struct {
	TargetP99Seconds float64 `json:"targetP99Seconds"`
	P99Seconds       float64 `json:"p99Seconds"`
	OK               bool    `json:"ok"`
}

// handleReadyz answers readiness. The bare endpoint keeps its original
// ok/draining contract for load balancers; ?verbose=1 upgrades the body
// to the JSON SLO summary (still 503 while draining, so probes that
// ignore the body keep working).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	if r.URL.Query().Get("verbose") == "" {
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
		return
	}
	doc := sloSummary{
		Status:   "ready",
		Requests: s.requests.Value(),
		Shed:     s.shed.Value(),
		Timeouts: s.timeouts.Value(),
	}
	if draining {
		doc.Status = "draining"
	}
	snap := s.cfg.Metrics.Snapshot()
	h := snap.Histograms["serve.request.seconds"]
	doc.Latency = latency{
		Count:      h.Count,
		P50Seconds: h.Quantile(0.50),
		P90Seconds: h.Quantile(0.90),
		P99Seconds: h.Quantile(0.99),
		MaxSeconds: h.Max,
	}
	doc.Stages = stages{
		Decode:   snap.Histograms["serve.stage.decode.seconds"].Mean,
		Session:  snap.Histograms["serve.stage.session.seconds"].Mean,
		Estimate: snap.Histograms["serve.stage.estimate.seconds"].Mean,
		Encode:   snap.Histograms["serve.stage.encode.seconds"].Mean,
	}
	if s.cfg.SLOTargetP99 > 0 {
		target := s.cfg.SLOTargetP99.Seconds()
		doc.SLO = &slo{
			TargetP99Seconds: target,
			P99Seconds:       doc.Latency.P99Seconds,
			OK:               doc.Latency.P99Seconds <= target,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	runjson.Encode(w, doc)
}

// handleFlightRec serves the flight recorder. Bare: the full snapshot
// (recent ring newest-first, slowest board). ?id=<req id>: one record.
// With &format=chrome the span tree(s) render as a Chrome trace instead
// of the JSON record — per-request with id, whole-recorder without.
func (s *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, errors.New("flight recorder disabled"))
		return
	}
	q := r.URL.Query()
	chrome := q.Get("format") == "chrome"
	if id := q.Get("id"); id != "" {
		rec, ok := s.flight.Find(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no flight record for request %q (rotated out or never seen)", id))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if chrome {
			chrometrace.WriteOne(w, rec.Span)
			return
		}
		runjson.Encode(w, rec)
		return
	}
	snap := s.flight.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if chrome {
		// Oldest-first so the exported timeline reads left to right.
		records := make([]obs.SpanRecord, 0, len(snap.Recent))
		for i := len(snap.Recent) - 1; i >= 0; i-- {
			records = append(records, snap.Recent[i].Span)
		}
		chrometrace.Write(w, records)
		return
	}
	runjson.Encode(w, snap)
}

// LogSummary emits one structured latency summary line — totals, p50/p99
// from the request histogram, shed and timeout counts — so a short-lived
// run leaves a latency record in its logs even when nothing ever scraped
// /metrics. The daemon calls it after the drain completes.
func (s *Server) LogSummary() {
	h := s.cfg.Metrics.Snapshot().Histograms["serve.request.seconds"]
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "serve summary",
		slog.Int64("requests", s.requests.Value()),
		slog.Int64("shed", s.shed.Value()),
		slog.Int64("timeouts", s.timeouts.Value()),
		slog.Int64("latencyCount", h.Count),
		slog.Float64("p50Seconds", h.Quantile(0.50)),
		slog.Float64("p99Seconds", h.Quantile(0.99)),
		slog.Float64("maxSeconds", h.Max),
	)
}

// writeError emits the uniform error body {"error": "..."}.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
