package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpumech"
	"gpumech/internal/emu"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/obs/promtext"
	"gpumech/internal/obs/runtimecollector"
	"gpumech/internal/runjson"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return New(cfg)
}

func postEvaluate(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestEvaluateMatchesRunJSON is the acceptance gate: the daemon's
// response must be byte-identical to what gpumech-run -json prints for
// the same parameters (both paths assemble through internal/runjson).
func TestEvaluateMatchesRunJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postEvaluate(t, s.Handler(),
		`{"kernel":"sdk_vectoradd","policy":"gto","warps":16,"level":"full"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}

	// Reproduce gpumech-run -kernel sdk_vectoradd -policy gto -warps 16 -json.
	sess, err := gpumech.NewSession("sdk_vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpumech.DefaultConfig().WithWarps(16)
	est, err := sess.EstimateWith(cfg, gpumech.GTO, gpumech.MTMSHRBand, gpumech.Clustering)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := runjson.Encode(&want, runjson.Result(sess, gpumech.GTO, gpumech.MTMSHRBand, est, nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("serve response != gpumech-run -json output:\n--- serve ---\n%s--- run ---\n%s",
			rec.Body.String(), want.String())
	}
}

func TestEvaluateRejections(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := map[string]string{
		"bad kernel":     `{"kernel":"no_such_kernel"}`,
		"bad policy":     `{"kernel":"sdk_vectoradd","policy":"fifo"}`,
		"bad level":      `{"kernel":"sdk_vectoradd","level":"turbo"}`,
		"missing kernel": `{"policy":"rr"}`,
		"negative warps": `{"kernel":"sdk_vectoradd","warps":-3}`,
		"unknown field":  `{"kernel":"sdk_vectoradd","cores":32}`,
		"malformed":      `{"kernel":`,
	}
	for name, body := range cases {
		rec := postEvaluate(t, s.Handler(), body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.String())
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not the JSON error shape", name, rec.Body.String())
		}
	}
	// Wrong method on the evaluate route.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/evaluate", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate: status %d, want 405", rec.Code)
	}
}

func TestEvaluateTimeout(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	rec := postEvaluate(t, s.Handler(), `{"kernel":"sdk_vectoradd"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if c := s.timeouts.Value(); c != 1 {
		t.Fatalf("serve.timeouts = %d, want 1", c)
	}
}

func TestLoadShedding(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2})
	// Occupy every slot, as still-running evaluations would.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	rec := postEvaluate(t, s.Handler(), `{"kernel":"sdk_vectoradd"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if c := s.shed.Value(); c != 1 {
		t.Fatalf("serve.shed = %d, want 1", c)
	}
	<-s.sem
	<-s.sem
	if rec := postEvaluate(t, s.Handler(), `{"kernel":"sdk_vectoradd"}`); rec.Code != http.StatusOK {
		t.Fatalf("after slots freed: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestHealthzReadyzDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get("/readyz"); rec.Code != 200 {
		t.Fatalf("/readyz before drain: %d", rec.Code)
	}
	s.BeginDrain()
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz draining: %d, want 503", rec.Code)
	}
	if rec := get("/healthz"); rec.Code != 200 {
		t.Fatalf("/healthz draining: %d, want 200 (liveness is not readiness)", rec.Code)
	}
}

func TestKernelsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/kernels", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Count   int `json:"count"`
		Kernels []struct {
			Name  string `json:"name"`
			Suite string `json:"suite"`
		} `json:"kernels"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != len(gpumech.Kernels()) || len(doc.Kernels) != doc.Count {
		t.Fatalf("count %d, kernels %d, want %d", doc.Count, len(doc.Kernels), len(gpumech.Kernels()))
	}
	if doc.Kernels[0].Name == "" || doc.Kernels[0].Suite == "" {
		t.Fatalf("kernel entries missing fields: %+v", doc.Kernels[0])
	}
}

// TestMetricsConformance scrapes /metrics after real traffic and holds
// the output to the exposition-format contract (promtext.Lint: histogram
// bucket monotonicity, +Inf == _count, name charset, one TYPE per
// family), and checks that server, pipeline and runtime families all
// show up.
func TestMetricsConformance(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Metrics: reg, Runtime: runtimecollector.New(reg)})
	for _, body := range []string{
		`{"kernel":"sdk_vectoradd"}`,
		`{"kernel":"sdk_vectoradd","policy":"gto"}`,
		`{"kernel":"bad_kernel"}`,
	} {
		postEvaluate(t, s.Handler(), body)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != promtext.ContentType {
		t.Fatalf("Content-Type %q, want %q", ct, promtext.ContentType)
	}
	body := rec.Body.Bytes()
	if err := promtext.Lint(body); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"gpumech_serve_requests_total",
		"gpumech_serve_request_seconds_bucket",
		"gpumech_serve_status_2xx_total",
		"gpumech_serve_status_4xx_total",
		"gpumech_trace_kernels_total",
		"gpumech_runtime_goroutines",
		"gpumech_runtime_gc_pause_seconds_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("scrape missing family %q:\n%s", want, body)
		}
	}
}

// TestRequestLogging checks the structured log record: JSON, one per
// request, carrying the request ID, route, status, latency and the
// evaluation parameters.
func TestRequestLogging(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	s := newTestServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&lockedWriter{w: &logBuf, mu: &mu}, nil))})
	postEvaluate(t, s.Handler(), `{"kernel":"sdk_vectoradd","policy":"gto","warps":8}`)

	mu.Lock()
	line := strings.TrimSpace(logBuf.String())
	mu.Unlock()
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, line)
	}
	for key, want := range map[string]any{
		"msg": "request", "route": "evaluate", "method": "POST",
		"kernel": "sdk_vectoradd", "policy": "gto",
	} {
		if rec[key] != want {
			t.Fatalf("log[%q] = %v, want %v\n%s", key, rec[key], want, line)
		}
	}
	if rec["status"] != float64(200) {
		t.Fatalf("log status %v, want 200", rec["status"])
	}
	id, _ := rec["id"].(string)
	if len(id) < 10 || !strings.Contains(id, "-") {
		t.Fatalf("log id %q not a <prefix>-<seq> request ID", id)
	}
	if _, ok := rec["latency"]; !ok {
		t.Fatal("log record missing latency")
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestRequestIDThreadedIntoSpans checks the request ID lands on the
// request's span and the evaluation pipeline spans nest beneath it.
func TestRequestIDThreadedIntoSpans(t *testing.T) {
	tracer := obs.NewTracer()
	s := newTestServer(t, Config{Tracer: tracer})
	postEvaluate(t, s.Handler(), `{"kernel":"sdk_vectoradd"}`)

	var reqSpan *obs.SpanRecord
	for _, r := range tracer.Records() {
		if r.Name == "http.evaluate" {
			r := r
			reqSpan = &r
		}
	}
	if reqSpan == nil {
		t.Fatal("no http.evaluate span recorded")
	}
	var id string
	for _, a := range reqSpan.Attrs {
		if a.Key == "req.id" {
			id = a.Value
		}
	}
	if id == "" {
		t.Fatalf("request span has no req.id attr: %+v", reqSpan.Attrs)
	}
	var hasEstimate bool
	for _, c := range reqSpan.Children {
		if c.Name == "estimate" {
			hasEstimate = true
		}
	}
	if !hasEstimate {
		t.Fatalf("evaluation spans not nested under the request span: %+v", reqSpan.Children)
	}
}

func TestSessionCacheCapAndReuse(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Metrics: reg, MaxSessions: 1})
	if rec := postEvaluate(t, s.Handler(), `{"kernel":"sdk_vectoradd"}`); rec.Code != 200 {
		t.Fatalf("first: %d", rec.Code)
	}
	// Same kernel again: cache hit, no new trace.
	if rec := postEvaluate(t, s.Handler(), `{"kernel":"sdk_vectoradd"}`); rec.Code != 200 {
		t.Fatalf("second: %d", rec.Code)
	}
	if traced := reg.Counter("trace.kernels").Value(); traced != 1 {
		t.Fatalf("trace.kernels = %d, want 1 (session must be cached)", traced)
	}
	// A different (kernel, blocks) key at the cap evicts the idle LRU
	// session instead of shedding.
	if rec := postEvaluate(t, s.Handler(), `{"kernel":"micro_copy"}`); rec.Code != 200 {
		t.Fatalf("over cap with idle session: %d, want 200 (LRU eviction): %s",
			rec.Code, rec.Body.String())
	}
	if ev := reg.Counter("serve.sessions.evicted").Value(); ev != 1 {
		t.Fatalf("serve.sessions.evicted = %d, want 1", ev)
	}
	// A bad kernel must not have consumed the only slot earlier.
	s2 := newTestServer(t, Config{MaxSessions: 1})
	postEvaluate(t, s2.Handler(), `{"kernel":"bad_kernel"}`)
	if rec := postEvaluate(t, s2.Handler(), `{"kernel":"sdk_vectoradd"}`); rec.Code != 200 {
		t.Fatalf("slot leaked to failed session: %d: %s", rec.Code, rec.Body.String())
	}
}

// TestSessionCacheChurnRecovers drives many distinct (kernel, blocks)
// keys through a tiny cache and checks the service keeps answering: the
// old permanent 503-on-full behavior is gone, every key evicts an idle
// predecessor, and previously evicted keys come back cleanly.
func TestSessionCacheChurnRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Metrics: reg, MaxSessions: 2})
	keys := []string{
		`{"kernel":"sdk_vectoradd","blocks":2}`,
		`{"kernel":"sdk_vectoradd","blocks":4}`,
		`{"kernel":"sdk_vectoradd","blocks":6}`,
		`{"kernel":"sdk_vectoradd","blocks":8}`,
	}
	for _, body := range keys {
		if rec := postEvaluate(t, s.Handler(), body); rec.Code != 200 {
			t.Fatalf("churn %s: %d: %s", body, rec.Code, rec.Body.String())
		}
	}
	if ev := reg.Counter("serve.sessions.evicted").Value(); ev != 2 {
		t.Fatalf("serve.sessions.evicted = %d, want 2", ev)
	}
	// The first key was evicted; it must come back with a fresh trace,
	// not a 503.
	if rec := postEvaluate(t, s.Handler(), keys[0]); rec.Code != 200 {
		t.Fatalf("evicted key did not recover: %d: %s", rec.Code, rec.Body.String())
	}
	s.mu.Lock()
	cached := len(s.sessions)
	s.mu.Unlock()
	if cached != 2 {
		t.Fatalf("cache holds %d sessions, want 2 (cap)", cached)
	}
}

// TestSessionCacheBusyBackstop pins the one case that still sheds: every
// cached session is held by an in-flight request, so there is nothing
// idle to evict.
func TestSessionCacheBusyBackstop(t *testing.T) {
	s := newTestServer(t, Config{MaxSessions: 1})
	if rec := postEvaluate(t, s.Handler(), `{"kernel":"sdk_vectoradd"}`); rec.Code != 200 {
		t.Fatalf("warm-up: %d", rec.Code)
	}
	// Hold the only session as an in-flight request would.
	_, release, err := s.acquireSession("sdk_vectoradd", 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := postEvaluate(t, s.Handler(), `{"kernel":"micro_copy"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("busy cache: %d, want 503: %s", rec.Code, rec.Body.String())
	}
	release()
	// Idle again: the same request now evicts and succeeds.
	if rec := postEvaluate(t, s.Handler(), `{"kernel":"micro_copy"}`); rec.Code != 200 {
		t.Fatalf("after release: %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// TestConcurrentMixedLoad is the acceptance -race load test: 8 client
// goroutines drive mixed kernels, policies and levels against one live
// server over HTTP, and every response must match the canonical document
// for its parameters.
func TestConcurrentMixedLoad(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Metrics: reg, Runtime: runtimecollector.New(reg)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	kernels := []string{"sdk_vectoradd", "micro_copy", "sdk_saxpy", "micro_barrier_ladder"}
	policies := []string{"rr", "gto"}
	levels := []string{"mt", "mshr", "full"}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				kernel := kernels[(g+i)%len(kernels)]
				policy := policies[(g+i)%len(policies)]
				level := levels[(g+i)%len(levels)]
				body := fmt.Sprintf(`{"kernel":%q,"policy":%q,"level":%q}`, kernel, policy, level)
				resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, data)
					return
				}
				var doc struct {
					Kernel string `json:"kernel"`
					Policy string `json:"policy"`
					Model  struct {
						CPI float64 `json:"cpi"`
					} `json:"model"`
				}
				if err := json.Unmarshal(data, &doc); err != nil {
					errCh <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if doc.Kernel != kernel || doc.Policy != policy || doc.Model.CPI <= 0 {
					errCh <- fmt.Errorf("goroutine %d: wrong document %s for %s", g, data, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The scrape must stay conformant under and after concurrent load.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := promtext.Lint(data); err != nil {
		t.Fatalf("post-load scrape fails lint: %v", err)
	}
	if got := reg.Counter("serve.requests").Value(); got < 24 {
		t.Fatalf("serve.requests = %d, want >= 24", got)
	}
}

// TestCensusEmulatesSequentially: the kernel census runs one kernel per
// worker, so each kernel's emulation runs its blocks sequentially.
func TestCensusEmulatesSequentially(t *testing.T) {
	info, err := kernels.Get("sdk_vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	l, err := censusLaunch(info, 8)
	if err != nil {
		t.Fatal(err)
	}
	var st emu.Stats
	l.Stats = &st
	if _, err := emu.Run(l); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 {
		t.Errorf("census emulated over %d block ranges, want 1", st.Workers)
	}
}

// TestEvaluateOracleBeyondTheGrid posts oracle evaluations with more
// warps and more MSHRs per core than any grid can use. The counts are the
// client's, and the evaluation goroutine has no recover: the oracle must
// answer them, not size its state by them.
func TestEvaluateOracleBeyondTheGrid(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, field := range []string{"warps", "mshrs"} {
		rec := postEvaluate(t, s.Handler(),
			`{"kernel":"sdk_vectoradd","`+field+`":70368744177664,"blocks":16,"oracle":true}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", field, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), `"oracle"`) {
			t.Errorf("%s: response carries no oracle result:\n%s", field, rec.Body.String())
		}
	}
}
