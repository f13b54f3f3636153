package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"gpumech/internal/dse"
	"gpumech/internal/obs"
	"gpumech/internal/runjson"
)

// Sweep job states. A job is terminal in the last three.
const (
	sweepQueued    = "queued"
	sweepRunning   = "running"
	sweepCompleted = "completed"
	sweepFailed    = "failed"
	sweepCancelled = "cancelled"
)

// sweepJob is one asynchronous design-space sweep. The immutable fields
// (id, spec, total, cancel, done) are set at creation; the mutable ones
// are guarded by Server.sweepMu.
type sweepJob struct {
	id     string
	spec   dse.Spec
	total  int
	cancel context.CancelFunc
	done   chan struct{}

	state  string
	points []dse.Point // completed points, arrival order
	result *dse.Result // non-nil once completed
	errMsg string      // non-empty once failed (and on cancellation detail)
}

func terminal(state string) bool {
	return state == sweepCompleted || state == sweepFailed || state == sweepCancelled
}

// handleSweepCreate is POST /v1/sweeps: validate the spec, register a
// job, start it in the background, and answer 202 with the job ID. The
// job table is bounded: when full, the oldest terminal job is evicted;
// with every slot non-terminal the request is shed with 429.
func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	st := stateFrom(r.Context())
	var spec dse.Spec
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	total, err := spec.NumPoints()
	if err == nil {
		err = checkBlocks(spec.Blocks)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// The job's context descends from Background, not the request: the
	// sweep outlives this POST by design and ends only on completion,
	// DELETE, or process exit.
	ctx, cancel := context.WithCancel(context.Background())
	job := &sweepJob{
		id:     fmt.Sprintf("swp-%s-%d", s.idPrefix, s.sweepSeq.Add(1)),
		spec:   spec,
		total:  total,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  sweepQueued,
	}

	s.sweepMu.Lock()
	if len(s.sweeps) >= s.cfg.MaxSweepJobs {
		evicted := false
		for i, id := range s.sweepOrder {
			if terminal(s.sweeps[id].state) {
				delete(s.sweeps, id)
				s.sweepOrder = append(s.sweepOrder[:i], s.sweepOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			s.sweepMu.Unlock()
			cancel()
			s.shed.Inc()
			writeError(w, http.StatusTooManyRequests, fmt.Errorf(
				"sweep table full (%d jobs, none finished)", s.cfg.MaxSweepJobs))
			return
		}
	}
	s.sweeps[job.id] = job
	s.sweepOrder = append(s.sweepOrder, job.id)
	s.sweepMu.Unlock()

	st.attrs = append(st.attrs, slog.String("sweep", job.id), slog.Int("points", total))
	st.span.SetStr("sweep.id", job.id)
	go s.runSweep(ctx, job)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	runjson.Encode(w, map[string]any{"id": job.id, "state": sweepQueued, "total": total})
}

// runSweep executes one job: wait for a running slot (bounded by
// MaxRunningSweeps), evaluate, and record the outcome. Every completed
// point is published immediately, so GET sees partial results while the
// sweep runs.
func (s *Server) runSweep(ctx context.Context, job *sweepJob) {
	sp := s.base.StartSpan("sweep.job")
	sp.SetStr("sweep.id", job.id)
	sp.SetInt("points", int64(job.total))
	defer sp.End()

	s.sweepsQueued.Add(1)
	select {
	case s.sweepSem <- struct{}{}:
		s.sweepsQueued.Add(-1)
	case <-ctx.Done():
		s.sweepsQueued.Add(-1)
		s.finishSweep(job, sp, nil, ctx.Err())
		return
	}
	s.sweepsRunning.Add(1)
	s.sweepMu.Lock()
	job.state = sweepRunning
	s.sweepMu.Unlock()

	start := time.Now()
	res, err := dse.Run(ctx, job.spec, dse.Options{
		Workers: s.cfg.Workers,
		Obs:     s.base.WithSpan(sp),
		OnPoint: func(p dse.Point) {
			s.sweepMu.Lock()
			job.points = append(job.points, p)
			s.sweepMu.Unlock()
		},
	})
	s.sweepDuration.Observe(time.Since(start).Seconds())
	s.sweepsRunning.Add(-1)
	<-s.sweepSem
	s.finishSweep(job, sp, res, err)
}

// finishSweep records the job's terminal state and wakes waiters.
func (s *Server) finishSweep(job *sweepJob, sp *obs.Span, res *dse.Result, err error) {
	s.sweepMu.Lock()
	switch {
	case err == nil:
		job.state = sweepCompleted
		job.result = res
	case errors.Is(err, context.Canceled):
		job.state = sweepCancelled
	default:
		job.state = sweepFailed
		job.errMsg = err.Error()
	}
	state := job.state
	s.sweepMu.Unlock()
	sp.SetStr("state", state)
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "sweep",
		slog.String("sweep", job.id), slog.String("state", state))
	close(job.done)
}

// lookupSweep resolves {id} or writes 404.
func (s *Server) lookupSweep(w http.ResponseWriter, r *http.Request) *sweepJob {
	id := r.PathValue("id")
	s.sweepMu.Lock()
	job := s.sweeps[id]
	s.sweepMu.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", id))
	}
	return job
}

// handleSweepGet is GET /v1/sweeps/{id}: state and progress, the
// completed points so far (sorted by index) while the sweep is live,
// and the full result document once completed.
func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	job := s.lookupSweep(w, r)
	if job == nil {
		return
	}
	s.sweepMu.Lock()
	doc := map[string]any{
		"id":    job.id,
		"state": job.state,
		"total": job.total,
		"done":  len(job.points),
	}
	if job.errMsg != "" {
		doc["error"] = job.errMsg
	}
	if job.result != nil {
		doc["result"] = job.result
	} else {
		pts := make([]dse.Point, len(job.points))
		copy(pts, job.points)
		sort.Slice(pts, func(i, j int) bool { return pts[i].Index < pts[j].Index })
		doc["points"] = pts
	}
	s.sweepMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	runjson.Encode(w, doc)
}

// handleSweepCancel is DELETE /v1/sweeps/{id}: cancel the job's context.
// Evaluation stops between points; already-terminal jobs are unaffected
// (the call is idempotent and reports the state it found).
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookupSweep(w, r)
	if job == nil {
		return
	}
	s.sweepMu.Lock()
	state := job.state
	s.sweepMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if terminal(state) {
		runjson.Encode(w, map[string]any{"id": job.id, "state": state})
		return
	}
	job.cancel()
	w.WriteHeader(http.StatusAccepted)
	runjson.Encode(w, map[string]any{"id": job.id, "state": "cancelling"})
}
