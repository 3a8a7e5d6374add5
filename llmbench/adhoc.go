package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/llm"
	"llmsql/internal/world"
)

// query is one statement of a workload with the way its answer is scored.
type query struct {
	sql string
	// truth is the ground-truth statement when it differs from sql: a
	// LIMIT answer is scored by precision against the unlimited one.
	truth string
	kind  scoreKind
}

// adhocQueries is the paper's query-class mix over all four domains:
// selection, projection, bind join, aggregate, GROUP BY and LIMIT. The seed
// draws the constants.
func adhocQueries(w *world.World, rng *rand.Rand) []query {
	pick := func(domain, col string) string {
		vals := w.Domain(domain).DistinctValues(col)
		return vals[rng.Intn(len(vals))]
	}
	limited := func(sql, truth string) query { return query{sql: sql, truth: truth, kind: precision} }
	return []query{
		{sql: fmt.Sprintf("SELECT name, population FROM country WHERE population > %d", 10+rng.Intn(60))},
		{sql: fmt.Sprintf("SELECT title, year FROM movie WHERE year >= %d", 1990+rng.Intn(25))},
		{sql: fmt.Sprintf("SELECT name, field FROM laureate WHERE year < %d", 1940+rng.Intn(50))},
		{sql: fmt.Sprintf("SELECT name, revenue FROM company WHERE revenue > %d", 5+rng.Intn(40))},
		{sql: "SELECT name, capital FROM country"},
		{sql: "SELECT title, director FROM movie"},
		{sql: "SELECT name, country FROM laureate"},
		{sql: "SELECT name, sector FROM company"},
		{sql: fmt.Sprintf("SELECT l.name, c.capital FROM laureate l JOIN country c ON l.country = c.name WHERE l.field = '%s'",
			pick("laureate", "field"))},
		{sql: fmt.Sprintf("SELECT k.name, c.continent FROM company k JOIN country c ON k.country = c.name WHERE k.sector = '%s'",
			pick("company", "sector"))},
		{sql: "SELECT AVG(rating) FROM movie", kind: scalar},
		{sql: fmt.Sprintf("SELECT COUNT(*) FROM company WHERE founded > %d", 1900+rng.Intn(80)), kind: scalar},
		{sql: "SELECT continent, COUNT(*) FROM country GROUP BY continent", kind: grouped},
		{sql: "SELECT field, COUNT(*) FROM laureate GROUP BY field", kind: grouped},
		limited(fmt.Sprintf("SELECT title, rating FROM movie WHERE genre = '%s' LIMIT 10", pick("movie", "genre")), ""),
		limited("SELECT name, gdp FROM country LIMIT 20", "SELECT name, gdp FROM country"),
	}
}

// adhocConfig is the solo engine of adhoc-cold: key-then-attr with three
// votes, batches of four, two workers, the memo on and a persistent cache.
func adhocConfig(cacheDir string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Strategy = core.StrategyKeyThenAttr
	cfg.Votes = 3
	cfg.BatchSize = 4
	cfg.Parallelism = 2
	cfg.CacheCapacity = 4096
	cfg.CacheDir = cacheDir
	return cfg
}

// adhocWorlds is how many worlds one adhoc-cold run asks its questions
// over. A world's size and the model's recall in it vary with the seed;
// averaging over a few keeps that variation from swamping the timings.
const adhocWorlds = 5

// adhocWorld is one world of adhoc-cold after set-up: its questions, the
// live answers and the recorded traffic.
type adhocWorld struct {
	fx      *fixture
	queries []query
	want    []string
	score   float64
	trace   *llm.Trace
	reqs    []llm.CompletionRequest
	base    *baseModel
}

// setupAdhoc records the live pass of each world: every statement once on
// a fresh engine over the simulator, keeping the answers and the traffic.
func setupAdhoc(opts options, spans *spanLog) ([]*adhocWorld, error) {
	var worlds []*adhocWorld
	for i := int64(0); i < adhocWorlds; i++ {
		w, err := setupAdhocWorld(opts, opts.seed*adhocWorlds+i)
		if err != nil {
			return nil, err
		}
		w.base = newBase(w.trace.Replay(w.fx.synth.Name()), spans)
		worlds = append(worlds, w)
	}
	return worlds, nil
}

func setupAdhocWorld(opts options, seed int64) (*adhocWorld, error) {
	fx, err := newFixture(seed)
	if err != nil {
		return nil, err
	}
	st := &adhocWorld{fx: fx, queries: adhocQueries(fx.w, rand.New(rand.NewSource(seed)))}
	rec := fx.newRecording()
	dir, err := freshDir(opts, "setup")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e, err := core.Open(rec.base, adhocConfig(dir))
	if err != nil {
		return nil, err
	}
	defer e.Close()
	fx.register(e)
	for _, q := range st.queries {
		res, err := e.Query(q.sql)
		if err != nil {
			return nil, fmt.Errorf("live %q: %w", q.sql, err)
		}
		st.want = append(st.want, render(res.Result))
		s, err := fx.scoreQuery(q, res.Result)
		if err != nil {
			return nil, err
		}
		st.score += s / float64(len(st.queries))
	}
	st.trace, st.reqs = rec.trace, rec.log.reqs
	return st, nil
}

// adhocRun is the state of adhoc-cold's timed phase.
type adhocRun struct {
	opts    options
	spans   *spanLog
	v       virtual
	cs      coreStats
	es      engineStats
	results []*core.QueryResult
	errs    []error
	// lat collects a pass's latencies, so the ledger grows outside the
	// allocation count.
	lat []float64
}

// pass asks every question of every world once, each world on a fresh
// engine over a new empty cache directory: nothing is warm.
func (r *adhocRun) pass(worlds []*adhocWorld, l *ledger, traced bool) error {
	var busy time.Duration
	n := 0
	r.lat = r.lat[:0]
	before := readMem()
	for _, w := range worlds {
		d, err := r.world(w, l, traced)
		if err != nil {
			return err
		}
		busy += d
		n += len(w.queries)
	}
	after := readMem()
	l.addPass(n, busy, before, after)
	l.lat = append(l.lat, r.lat...)
	return nil
}

// world runs one world's questions and returns the time its engine was
// open.
func (r *adhocRun) world(w *adhocWorld, l *ledger, traced bool) (time.Duration, error) {
	dir, err := freshDir(r.opts, "pass")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	e, err := core.Open(w.base, adhocConfig(dir))
	if err != nil {
		return 0, err
	}
	w.fx.register(e)
	liveBefore := w.base.usage()
	for i, q := range w.queries {
		var mark int
		var s0 time.Duration
		if traced {
			mark, s0 = r.spans.mark(), r.spans.now()
		}
		m0 := l.stmtStart()
		t0 := time.Now()
		r.results[i], r.errs[i] = e.Query(q.sql)
		r.lat = append(r.lat, float64(time.Since(t0))/float64(time.Millisecond))
		l.countStmt(m0)
		if traced {
			s1 := r.spans.now()
			r.cs.selfMs = append(r.cs.selfMs, float64(s1-s0-r.spans.since(mark, s0, s1))/float64(time.Millisecond))
		}
	}
	r.es.add(e)
	if err := e.Close(); err != nil {
		return 0, err
	}
	busy := time.Since(start)
	if !traced {
		r.v.stmts += len(w.queries)
		r.v.live = r.v.live.add(w.base.usage().sub(liveBefore))
	}
	for i := range w.queries {
		if r.errs[i] != nil || render(r.results[i].Result) != w.want[i] {
			l.failed++
			continue
		}
		if !traced {
			r.v.billed.Add(r.results[i].Usage)
		}
		r.cs.addScans(r.results[i].Scans)
	}
	return busy, nil
}

func runAdhoc(opts options, rep *report) error {
	var spans *spanLog
	if opts.trace {
		spans = newSpanLog()
	}
	worlds, err := setupRepeated(opts, rep, func() ([]*adhocWorld, error) { return setupAdhoc(opts, spans) })
	if err != nil {
		return err
	}
	n := len(worlds[0].queries)
	r := &adhocRun{opts: opts, spans: spans, results: make([]*core.QueryResult, n), errs: make([]error, n),
		lat: make([]float64, 0, n*len(worlds))}
	prof, err := profileIf(opts)
	if err != nil {
		return err
	}
	ph, err := runPasses(opts, spans, true, func(l *ledger, traced bool) error { return r.pass(worlds, l, traced) })
	if err != nil {
		return err
	}
	if err := prof.fill(rep); err != nil {
		return err
	}
	ph.fill(opts, rep)
	r.v.fill(rep)
	r.cs.fill(rep)
	r.es.fill(rep)
	var score float64
	for _, w := range worlds {
		score += w.score / float64(len(worlds))
	}
	rep.set("answer_f1", score)
	if !opts.trace {
		return nil
	}
	notApplicable(rep, "solo engines have no coalescer, views, writes or server",
		"llm.coalescer.memo_hit_rate", "llm.coalescer.flight_hits", "core.view.refresh_ms", "core.view.read_us",
		"storage.insert_us", "serve.overhead_us", "serve.coalesced_share", "serve.admission_rejected")
	w := worlds[0]
	rep.note("layer replays use the first of the %d worlds", len(worlds))
	return layerReplays(opts, rep, w.fx, w.trace, w.reqs, sqlOf(w.queries), adhocConfig(""))
}

func sqlOf(qs []query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.sql
	}
	return out
}
