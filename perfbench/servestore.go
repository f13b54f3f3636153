package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpumech"
	"gpumech/internal/cluster"
	"gpumech/internal/obs"
	"gpumech/internal/serve"
	"gpumech/internal/store"
)

// serving runs serve_store: POST /v1/evaluate through an in-process
// gateway fronting two serve backends that share one profile store.
type serving struct {
	plan *plan
	dir  string // scratch directory of the run

	storeDir string
	backends []*backend
	gwReg    *obs.Registry
	gw       *cluster.Gateway
	gwSrv    *httptest.Server
	client   *http.Client

	// refs holds one storeless library session per (kernel, grid) key,
	// the reference path the bodies are compared with.
	mu   sync.Mutex
	refs map[string]*gpumech.Session
}

type backend struct {
	reg *obs.Registry
	srv *httptest.Server
}

func newServing(p *plan, dir string) *serving { return &serving{plan: p, dir: dir} }

func keyOf(p point) string { return fmt.Sprintf("%s|%d", p.Kernel, p.Blocks) }

// keys returns one point per (kernel, grid) key at the base configuration.
func (w *serving) keys() []point {
	var out []point
	for _, k := range w.plan.kernels() {
		for _, g := range w.plan.spec.Grids {
			p := basePoint(k)
			p.Blocks = g
			out = append(out, p)
		}
	}
	return out
}

// setup writes every key's prep into a fresh profile store, then starts
// the backends and the gateway and sends one untimed request per key.
// With a tracer the store is filled through composed calls, so the
// traced run times each layer and every store.Put.
func (w *serving) setup(rep int, tc *tracer) error {
	w.close()
	w.storeDir = filepath.Join(w.dir, fmt.Sprintf("store-%d", rep))
	if err := os.RemoveAll(w.storeDir); err != nil {
		return err
	}
	st, err := store.Open(w.storeDir, nil)
	if err != nil {
		return err
	}
	for _, p := range w.keys() {
		if err := fill(tc, st, w.storeDir, p); err != nil {
			return err
		}
	}

	// Each backend's session cache holds fewer (kernel, grid) keys than
	// its share, so most requests load their prep from the store; it
	// stays one above the client count, so eviction always finds an
	// idle session and never answers 503.
	maxSessions := w.plan.spec.Clients + 1
	var nodes []string
	for i := 0; i < 2; i++ {
		b := &backend{reg: obs.NewRegistry()}
		srv := serve.New(serve.Config{
			MaxSessions:     maxSessions,
			ProfileStoreDir: w.storeDir,
			Logger:          slog.New(slog.NewJSONHandler(io.Discard, nil)),
			Metrics:         b.reg,
		})
		b.srv = httptest.NewServer(srv.Handler())
		w.backends = append(w.backends, b)
		nodes = append(nodes, b.srv.URL)
	}
	w.gwReg = obs.NewRegistry()
	w.gw, err = cluster.New(cluster.Config{
		Nodes:   nodes,
		Seed:    1,
		Retries: 1,
		Logger:  slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Metrics: w.gwReg,
	})
	if err != nil {
		return err
	}
	w.gwSrv = httptest.NewServer(w.gw.Handler())
	w.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: w.plan.spec.Clients},
	}
	for _, p := range w.keys() {
		if _, err := w.op(p); err != nil {
			return fmt.Errorf("warm-up %s: %w", keyOf(p), err)
		}
	}
	return nil
}

// fill puts one key's prep into the store. Untraced, it goes through a
// store-backed Session, as a daemon filling the store would; traced, it
// makes the same calls itself.
func fill(tc *tracer, st *store.Store, dir string, p point) error {
	cfg := p.config()
	if tc == nil {
		s, err := gpumech.NewSession(p.Kernel, gpumech.WithBlocks(p.Blocks), gpumech.WithProfileStore(dir))
		if err != nil {
			return err
		}
		_, err = s.Estimate(cfg, p.Policy)
		return err
	}
	tr, err := composeTrace(tc, 0, -1, p)
	if err != nil {
		return err
	}
	prof, err := composeCache(tc, 0, -1, tr, cfg)
	if err != nil {
		return err
	}
	s, err := composeStructural(tc, 0, -1, tr, prof, cfg)
	if err != nil {
		return err
	}
	key := store.KeyFor(p.Kernel, p.Blocks, p.TraceSeed, 128, cfg)
	h := tc.begin("store.put", 0, -1, false)
	err = st.Put(key, &store.Entry{Warps: len(tr.Warps), TotalInsts: tr.TotalInsts(),
		Profile: prof, Table: s.table, WarpProfiles: s.profiles, Rep: s.rep})
	h.end(0)
	return err
}

// op sends one request through the gateway. A non-200 answer fails.
func (w *serving) op(p point) (opOut, error) {
	resp, err := w.client.Post(w.gwSrv.URL+"/v1/evaluate", "application/json", bytes.NewReader(p.body()))
	if err != nil {
		return opOut{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return opOut{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return opOut{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return opOut{body: body}, nil
}

// reference renders p's document through a storeless library Session
// and runjson: the path a body must equal byte for byte.
func (w *serving) reference(p point) ([]byte, error) {
	s, err := w.refSession(p)
	if err != nil {
		return nil, err
	}
	est, err := s.EstimateWith(p.config(), p.Policy, gpumech.MTMSHRBand, gpumech.Clustering)
	if err != nil {
		return nil, err
	}
	return document(nil, -1, s, p, opOut{est: est})
}

func (w *serving) refSession(p point) (*gpumech.Session, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s := w.refs[keyOf(p)]; s != nil {
		return s, nil
	}
	s, err := gpumech.NewSession(p.Kernel, gpumech.WithBlocks(p.Blocks))
	if err != nil {
		return nil, err
	}
	if w.refs == nil {
		w.refs = map[string]*gpumech.Session{}
	}
	w.refs[keyOf(p)] = s
	return s, nil
}

// replay answers p the way a backend whose session was evicted does,
// through calls the benchmark makes itself: a store read, the model
// stages, and the runjson document.
func (w *serving) replay(tc *tracer, i int, st *store.Store, p point) ([]byte, error) {
	cfg := p.config()
	h := tc.begin("store.get", 0, i, false)
	e, ok := st.Get(store.KeyFor(p.Kernel, p.Blocks, p.TraceSeed, 128, cfg))
	h.end(0)
	if !ok {
		return nil, fmt.Errorf("store miss for %s", keyOf(p))
	}
	est, err := composeModel(tc, 0, i, &structural{table: e.Table, profiles: e.WarpProfiles,
		rep: e.Rep, prof: e.Profile}, cfg, p.Policy)
	if err != nil {
		return nil, err
	}
	// The storeless session supplies the document's trace metadata.
	s, err := w.refSession(p)
	if err != nil {
		return nil, err
	}
	return document(tc, i, s, p, opOut{est: est})
}

// counters sums a counter over the backends.
func (w *serving) counters() map[string]float64 {
	out := map[string]float64{}
	for _, b := range w.backends {
		snap := b.reg.Snapshot()
		for _, k := range sortedKeys(snap.Counters) {
			out[k] += float64(snap.Counters[k])
		}
		for _, k := range sortedKeys(snap.Histograms) {
			out[k+".sum"] += snap.Histograms[k].Sum
			out[k+".count"] += float64(snap.Histograms[k].Count)
		}
	}
	gw := w.gwReg.Snapshot().Counters
	for _, k := range sortedKeys(gw) {
		out[k] += float64(gw[k])
	}
	return out
}

func (w *serving) close() {
	if w.gwSrv != nil {
		w.gwSrv.Close()
		w.gw.Close()
	}
	for _, b := range w.backends {
		b.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	w.backends, w.gw, w.gwSrv, w.client = nil, nil, nil, nil
}
