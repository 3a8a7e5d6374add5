package main

import (
	"fmt"
	"math"
	"os"
	"sync"

	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/metrics"
	"llmsql/internal/plan"
	"llmsql/internal/rel"
	"llmsql/internal/sql"
	"llmsql/internal/storage"
	"llmsql/internal/world"
)

// fixture is what every workload's set-up derives from the seed: the world
// at paper scale, its ground truth in a row store, and the live simulator.
type fixture struct {
	w     *world.World
	truth *storage.DB
	synth *llm.SynthLM
}

func newFixture(seed int64) (*fixture, error) {
	w := world.Generate(world.Config{Seed: seed})
	db, err := world.LoadDB(w)
	if err != nil {
		return nil, err
	}
	return &fixture{w: w, truth: db, synth: llm.NewSynthLM(w, llm.ProfileMedium, seed)}, nil
}

// register adds the world's domains as virtual tables.
func (f *fixture) register(e interface{ RegisterWorldDomain(*world.Domain) }) {
	for _, name := range f.w.DomainNames() {
		e.RegisterWorldDomain(f.w.Domain(name))
	}
}

// truthPlan plans a SELECT against the ground-truth row store.
func (f *fixture) truthPlan(query string) (plan.Node, error) {
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	return plan.Plan(sel, &exec.StorageCatalog{DB: f.truth})
}

// truthResult answers a SELECT from the ground truth.
func (f *fixture) truthResult(query string) (*exec.Result, error) {
	node, err := f.truthPlan(query)
	if err != nil {
		return nil, err
	}
	return exec.Execute(node, &exec.StorageSource{DB: f.truth})
}

// scoreKind says how an answer is compared with the ground truth.
type scoreKind int

const (
	// keyed rows match on the first column; other cells within 2%.
	keyed scoreKind = iota
	// grouped rows match on the group column; counts within 30%, since a
	// model that misses entities shifts every group count.
	grouped
	// scalar answers score 1 minus their relative error.
	scalar
	// precision scores a LIMIT answer: the share of its rows that are
	// right, against the unlimited ground truth.
	precision
)

// scoreQuery scores got against the ground-truth answer of q.
func (f *fixture) scoreQuery(q query, got *exec.Result) (float64, error) {
	src := q.sql
	if q.truth != "" {
		src = q.truth
	}
	truth, err := f.truthResult(src)
	if err != nil {
		return 0, fmt.Errorf("ground truth of %q: %w", src, err)
	}
	switch q.kind {
	case precision:
		m := metrics.Compare(got.Rows, truth.Rows, metrics.Options{NumTolerance: 0.02})
		if m.ResultRows == 0 {
			return 1, nil
		}
		return float64(m.ExactMatched) / float64(m.ResultRows), nil
	case scalar:
		g, t := firstCell(got), firstCell(truth)
		return math.Max(0, 1-metrics.ScalarError(g, t)), nil
	case grouped:
		return f1(metrics.Compare(got.Rows, truth.Rows, metrics.Options{NumTolerance: 0.30})), nil
	default:
		return f1(metrics.Compare(got.Rows, truth.Rows, metrics.Options{NumTolerance: 0.02})), nil
	}
}

// f1 is the set F1, with two empty answers counting as a perfect match.
func f1(m metrics.SetMetrics) float64 {
	if m.TruthRows == 0 && m.ResultRows == 0 {
		return 1
	}
	return m.F1()
}

func firstCell(res *exec.Result) rel.Value {
	if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
		return rel.Null()
	}
	return res.Rows[0][0]
}

// render is the byte form answers are compared in.
func render(res *exec.Result) string { return core.FormatResult(res) }

// requestLog records the request stream that reaches it, for the layer
// replays.
type requestLog struct {
	inner llm.Model
	mu    sync.Mutex
	reqs  []llm.CompletionRequest
}

func (r *requestLog) Name() string { return r.inner.Name() }

func (r *requestLog) Complete(req llm.CompletionRequest) (llm.CompletionResponse, error) {
	r.mu.Lock()
	r.reqs = append(r.reqs, req)
	r.mu.Unlock()
	return r.inner.Complete(req)
}

// recording is a live base for set-up: the simulator under a trace
// recorder, with the request stream logged.
type recording struct {
	trace *llm.Trace
	log   *requestLog
	base  *baseModel
}

func (f *fixture) newRecording() *recording {
	tr := llm.NewTrace()
	log := &requestLog{inner: tr.Record(f.synth)}
	return &recording{trace: tr, log: log, base: newBase(log, nil)}
}

// freshDir makes a new empty directory under the run's work directory.
func freshDir(opts options, name string) (string, error) {
	return os.MkdirTemp(opts.workDir, name+"-")
}
