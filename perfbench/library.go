package main

import (
	"bytes"
	"fmt"
	"reflect"

	"gpumech"
	"gpumech/internal/kernels"
	"gpumech/internal/obs"
	"gpumech/internal/runjson"
	"gpumech/internal/trace"
)

// library runs sweep_warm, first_contact and validate_oracle: one caller
// goroutine calling the gpumech library directly.
type library struct {
	plan     *plan
	sessions map[string]*gpumech.Session // sweep_warm, validate_oracle

	// prep holds each kernel's trace and structural prep, built through
	// composed calls after the timed phase: the reference the ops are
	// checked against, and where traced ops start. obs is the Observer
	// the real ops report to in the traced phase.
	prep map[string]*prepared
	obs  *obs.Observer
}

type prepared struct {
	tr *trace.Kernel
	s  *structural
}

func newLibrary(p *plan) *library { return &library{plan: p} }

// setup builds what the timed ops reuse. sweep_warm and validate_oracle
// trace every kernel and fill its cache profile; first_contact verifies
// its kernels, as gpumech-serve does at boot, and warms up with one
// block of ops on trace identities (negative seeds) the plan never uses.
func (l *library) setup() error {
	l.sessions = map[string]*gpumech.Session{}
	if l.plan.spec.Name == firstContact {
		fs, err := kernels.VerifyAll(l.plan.kernels(), kernels.Scale{Blocks: 2, Seed: 1})
		if err != nil {
			return err
		}
		if err := fs.Err(); err != nil {
			return err
		}
		for i, p := range l.plan.block(0) {
			p.TraceSeed = -int64(i + 1)
			if _, err := l.op(p); err != nil {
				return err
			}
		}
		return nil
	}
	for _, k := range l.plan.kernels() {
		bp := basePoint(k)
		s, err := gpumech.NewSession(k)
		if err != nil {
			return err
		}
		if _, err := s.Estimate(bp.config(), bp.Policy); err != nil {
			return err
		}
		l.sessions[k] = s
	}
	return nil
}

// opOut is one op's output.
type opOut struct {
	est  *gpumech.Estimate
	orc  *gpumech.OracleResult
	body []byte           // serve_store
	sess *gpumech.Session // library ops; not kept past the op
}

// op runs one timed op through the public Session API.
func (l *library) op(p point) (opOut, error) {
	var out opOut
	var err error
	cfg := p.config()
	sess := l.sessions[p.Kernel]
	if l.plan.spec.Name == firstContact {
		sess, err = gpumech.NewSession(p.Kernel, gpumech.WithBlocks(p.Blocks),
			gpumech.WithSeed(p.TraceSeed), gpumech.WithObserver(l.obs))
		if err != nil {
			return out, err
		}
	} else if l.obs != nil {
		sess = sess.Observing(l.obs)
	}
	out.sess = sess
	if out.est, err = sess.EstimateWith(cfg, p.Policy, gpumech.MTMSHRBand, gpumech.Clustering); err != nil {
		return out, err
	}
	if l.plan.spec.Name == validateOracle {
		out.orc, err = sess.Oracle(cfg, p.Policy)
	}
	return out, err
}

// prepare builds, through composed calls, the per-kernel state a
// reference or traced op starts from. first_contact ops start from
// nothing, so it has none.
func (l *library) prepare(tc *tracer) error {
	if l.plan.spec.Name == firstContact {
		return nil
	}
	l.prep = map[string]*prepared{}
	for _, k := range l.plan.kernels() {
		bp := basePoint(k)
		tr, err := composeTrace(tc, 0, -1, bp)
		if err != nil {
			return err
		}
		prof, err := composeCache(tc, 0, -1, tr, bp.config())
		if err != nil {
			return err
		}
		s, err := composeStructural(tc, 0, -1, tr, prof, bp.config())
		if err != nil {
			return err
		}
		l.prep[k] = &prepared{tr: tr, s: s}
	}
	return nil
}

// compose makes op i's layer calls itself. sweep_warm and
// validate_oracle sessions reuse their trace and cache profile, so the
// composed op starts from the prepared ones; a first_contact op builds
// everything.
func (l *library) compose(tc *tracer, parent int64, i int, p point, oracle bool) (opOut, error) {
	var out opOut
	cfg := p.config()
	pr := l.prep[p.Kernel]
	var tr *trace.Kernel
	var s *structural
	var err error
	if pr == nil {
		if tr, err = composeTrace(tc, parent, i, p); err != nil {
			return out, err
		}
		prof, err := composeCache(tc, parent, i, tr, cfg)
		if err != nil {
			return out, err
		}
		if s, err = composeStructural(tc, parent, i, tr, prof, cfg); err != nil {
			return out, err
		}
	} else {
		tr = pr.tr
		if tc != nil {
			// The session rebuilds the structural prep on every estimate.
			if s, err = composeStructural(tc, parent, i, tr, pr.s.prof, cfg); err != nil {
				return out, err
			}
		} else {
			s = pr.s
		}
	}
	if out.est, err = composeModel(tc, parent, i, s, cfg, p.Policy); err != nil {
		return out, err
	}
	if oracle {
		out.orc, err = composeOracle(tc, parent, i, tr, cfg, p.Policy)
	}
	return out, err
}

// same reports whether two op outputs agree exactly.
func same(a, b opOut) error {
	if (a.est == nil) != (b.est == nil) || a.est != nil && *a.est != *b.est {
		return fmt.Errorf("estimate differs: %+v vs %+v", a.est, b.est)
	}
	if !reflect.DeepEqual(a.orc, b.orc) {
		return fmt.Errorf("oracle result differs: %+v vs %+v", a.orc, b.orc)
	}
	if !bytes.Equal(a.body, b.body) {
		return fmt.Errorf("response body differs")
	}
	return nil
}

// sane rejects outputs no correct model produces: a non-finite or
// non-positive CPI.
func sane(o opOut) error {
	if o.est != nil && (!finite(o.est.CPI) || o.est.CPI <= 0) {
		return fmt.Errorf("estimate CPI %v", o.est.CPI)
	}
	if o.orc != nil && (!finite(o.orc.CPI) || o.orc.CPI <= 0) {
		return fmt.Errorf("oracle CPI %v", o.orc.CPI)
	}
	return nil
}

// document renders an op's output as the canonical evaluation document
// gpumech-run and gpumech-serve print, so two outputs compare byte for
// byte.
func document(tc *tracer, i int, sess *gpumech.Session, p point, o opOut) ([]byte, error) {
	h := tc.begin("runjson", 0, i, false)
	var buf bytes.Buffer
	err := runjson.Encode(&buf, runjson.Result(sess, p.Policy, gpumech.MTMSHRBand, o.est, o.orc))
	h.end(0)
	return buf.Bytes(), err
}
