// Package cluster implements the gpumech-gateway: an HTTP front that
// spreads evaluation load over a fleet of gpumech-serve backends.
//
// The gateway exists because the expensive state in serving is per
// kernel×grid: the trace, cache profile, and interval prep that a
// backend builds on first contact and then amortizes over every repeat
// (in memory via the session cache, across restarts via the profile
// store). Spraying requests round-robin would rebuild that state on
// every node; the gateway instead consistent-hashes each kernel×grid
// onto one node (rendezvous hashing, see hash.go), so each backend owns
// a stable shard of the keyspace and its caches stay hot.
//
// Around that routing core the gateway adds the cluster plumbing:
// health-checked node pool with add/remove at runtime (pool.go),
// per-key coalescing of identical concurrent requests (singleflight.go),
// and bounded failover — a connection-dead backend is skipped for the
// next node in the key's preference order, with backoff between
// attempts. HTTP-level responses (including 429 shed and 400 rejects)
// pass through verbatim: the backend said something, and the gateway's
// job is routing, not retrying semantics it does not understand.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"gpumech/internal/obs"
	"gpumech/internal/obs/promtext"
)

// Config configures a Gateway.
type Config struct {
	// Nodes is the initial backend set: host:port or http:// base URLs.
	Nodes []string

	// Seed perturbs the rendezvous ranking. Gateways that must agree on
	// routing (replicas, restarts, CI determinism checks) share a seed.
	Seed uint64

	// Retries is how many additional nodes to try after the first
	// choice fails with a connection error. 0 means first choice only.
	Retries int

	// RetryBackoff is the pause before each failover attempt.
	RetryBackoff time.Duration

	// HealthInterval is the background probe period; 0 disables probing
	// (useful in tests that drive Probe directly).
	HealthInterval time.Duration

	// MaxBodyBytes caps an evaluate request body. 0 means 1 MiB.
	MaxBodyBytes int64

	// Client issues backend requests and health probes. Nil uses a
	// client with a 60s timeout.
	Client *http.Client

	Logger  *slog.Logger
	Metrics *obs.Registry
}

// Gateway is the cluster front-end handler.
type Gateway struct {
	cfg     Config
	pool    *Pool
	flights flightGroup
	obs     *obs.Observer
	logger  *slog.Logger
	mux     *http.ServeMux
}

// discardHandler drops every log record. Enabled reports false, so
// no record is ever built. (slog.DiscardHandler needs Go 1.24; go.mod
// declares 1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// New builds a gateway and starts its health loop.
func New(cfg Config) (*Gateway, error) {
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	o := obs.NewObserver(cfg.Metrics, nil)
	pool, err := NewPool(cfg.Nodes, cfg.Client, o)
	if err != nil {
		return nil, err
	}
	g := &Gateway{cfg: cfg, pool: pool, obs: o, logger: cfg.Logger}
	pool.StartProbing(cfg.HealthInterval)

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/evaluate", g.handleEvaluate)
	g.mux.HandleFunc("GET /v1/kernels", g.handleKernels)
	g.mux.Handle("GET /metrics", promtext.Handler(cfg.Metrics))
	g.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /admin/nodes", g.handleNodesGet)
	g.mux.HandleFunc("POST /admin/nodes", g.handleNodesPost)
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Pool exposes the node pool (admin surface and tests).
func (g *Gateway) Pool() *Pool { return g.pool }

// Close stops the health loop.
func (g *Gateway) Close() { g.pool.Close() }

// proxyResult is a fully buffered backend response, shareable across
// coalesced callers.
type proxyResult struct {
	status      int
	contentType string
	body        []byte
	node        string
}

// errNoBackend distinguishes "no healthy node" from "every attempt
// failed" so the client sees 503 vs 502.
var errNoBackend = errors.New("cluster: no healthy backend")

// proxy routes one request: rank the healthy nodes for key, try them in
// preference order, failing over (with backoff) only on transport
// errors. Any HTTP response — success or failure — ends the attempt
// sequence and is returned verbatim.
func (g *Gateway) proxy(ctx context.Context, method, path string, body []byte, key string) (*proxyResult, error) {
	nodes := rank(g.cfg.Seed, g.pool.Healthy(), key)
	if len(nodes) == 0 {
		g.obs.Counter("cluster.no_backend").Inc()
		return nil, errNoBackend
	}
	attempts := g.cfg.Retries + 1
	if attempts > len(nodes) {
		attempts = len(nodes)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			g.obs.Counter("cluster.failover").Inc()
			select {
			case <-time.After(g.cfg.RetryBackoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		node := nodes[i]
		res, err := g.tryNode(ctx, node, method, path, body)
		if err == nil {
			return res, nil
		}
		lastErr = err
		g.obs.Counter("cluster.node_errors").Inc()
		g.pool.MarkUnhealthy(node, err.Error())
		g.logger.Warn("backend failed", slog.String("node", node), slog.String("error", err.Error()))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("cluster: all %d attempt(s) failed: %w", attempts, lastErr)
}

func (g *Gateway) tryNode(ctx context.Context, node, method, path string, body []byte) (*proxyResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, node+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	g.obs.Counter("cluster.node." + nodeLabel(node) + ".requests").Inc()
	return &proxyResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        b,
		node:        node,
	}, nil
}

// nodeLabel renders a base URL as a metric-name fragment (promtext
// sanitizes the punctuation; stripping the scheme keeps it short).
func nodeLabel(base string) string {
	base = strings.TrimPrefix(base, "http://")
	base = strings.TrimPrefix(base, "https://")
	return base
}

func (g *Gateway) writeResult(w http.ResponseWriter, res *proxyResult) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.Header().Set("X-Gpumech-Node", res.node)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func (g *Gateway) writeProxyError(w http.ResponseWriter, err error) {
	if errors.Is(err, errNoBackend) {
		httpError(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	g.obs.Counter("cluster.errors").Inc()
	httpError(w, http.StatusBadGateway, err.Error())
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (g *Gateway) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	g.obs.Counter("cluster.requests").Inc()
	defer g.obs.ObserveSince("cluster.proxy.seconds", start)

	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}

	// The routing fields. A body the gateway cannot parse still routes
	// (deterministically, on the zero key) — the backend owns rejecting
	// it with a real 400.
	var route struct {
		Kernel string `json:"kernel"`
		Blocks int    `json:"blocks"`
	}
	_ = json.Unmarshal(body, &route)
	rk := routeKey(route.Kernel, route.Blocks)

	// Coalesce byte-identical concurrent requests: the flight key binds
	// the routing key AND the body digest, so distinct configurations of
	// one kernel never share a response.
	sum := sha256.Sum256(body)
	fk := rk + "|" + hex.EncodeToString(sum[:])
	res, err, shared := g.flights.Do(fk, func() (*proxyResult, error) {
		return g.proxy(r.Context(), http.MethodPost, "/v1/evaluate", body, rk)
	})
	if shared {
		g.obs.Counter("cluster.coalesced").Inc()
	}
	if err != nil {
		g.writeProxyError(w, err)
		return
	}
	g.writeResult(w, res)
}

func (g *Gateway) handleKernels(w http.ResponseWriter, r *http.Request) {
	g.obs.Counter("cluster.requests").Inc()
	// The kernel list is identical on every backend; route it like any
	// other key so the load of serving it is still pinned and cheap.
	res, err := g.proxy(r.Context(), http.MethodGet, "/v1/kernels?"+r.URL.RawQuery, nil, "kernels")
	if err != nil {
		g.writeProxyError(w, err)
		return
	}
	g.writeResult(w, res)
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if len(g.pool.Healthy()) == 0 {
		httpError(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (g *Gateway) handleNodesGet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"nodes": g.pool.Status()})
}

// handleNodesPost mutates the node set without a restart:
//
//	{"add": ["host:port", ...], "remove": ["host:port", ...]}
func (g *Gateway) handleNodesPost(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Add    []string `json:"add"`
		Remove []string `json:"remove"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	for _, a := range req.Add {
		if err := g.pool.Add(a); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	for _, a := range req.Remove {
		if err := g.pool.Remove(a); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	g.handleNodesGet(w, r)
}
