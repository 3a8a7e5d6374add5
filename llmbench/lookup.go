package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/llm"
)

// lookupShapes are the lookup-hot statements per domain: a point lookup on
// the key and a small range over it, each fetching two attributes.
var lookupShapes = []struct{ table, key, cols string }{
	{"country", "name", "capital, population"},
	{"movie", "title", "year, rating"},
	{"laureate", "name", "field, year"},
	{"company", "name", "sector, revenue"},
}

const (
	// lookupPass is the number of statements in one pass. Every pass
	// replays the same seeded draw, so once set-up has run it once the
	// plan cache is in the same state at the start of every pass.
	lookupPass = 2000
	// rangeEvery spaces the range lookups: one per this many keys in sort
	// order, each spanning four keys.
	rangeEvery = 8
	// zipfS and zipfV shape the key draw, P(k) ∝ (zipfV+k)^-zipfS over the
	// statements in prominence order: over a third of the draws hit the
	// 256-entry plan cache, and the hot set is several hundred statements
	// wide, so whether the model knows a handful of entities does not
	// decide the figures.
	zipfS = 1.05
	zipfV = 64
	// lookupMemo is the completion memo of the lookup engine; every
	// completion the statement universe needs fits in it.
	lookupMemo = 4096
)

// lookupConfig is the long-lived solo engine of lookup-hot: key-then-attr
// at temperature 0 (one enumeration round), one vote, the memo on.
func lookupConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Strategy = core.StrategyKeyThenAttr
	cfg.Temperature = 0
	cfg.Votes = 1
	cfg.BatchSize = 4
	cfg.Parallelism = 2
	cfg.CacheCapacity = lookupMemo
	return cfg
}

func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// lookupUniverse lists every statement lookup-hot can send, most prominent
// entities first: point lookups on every key of every domain, interleaved
// by prominence rank, with a range lookup after every rangeEvery points.
func lookupUniverse(fx *fixture) []query {
	type dom struct {
		keys, sorted []string
		shape        int
	}
	var doms []dom
	longest := 0
	for i, sh := range lookupShapes {
		d := fx.w.Domain(sh.table)
		keys := d.TopKeys(len(d.Entities))
		sorted := append([]string(nil), keys...)
		sort.Strings(sorted)
		doms = append(doms, dom{keys, sorted, i})
		longest = max(longest, len(keys))
	}
	var points, ranges []query
	for r := 0; r < longest; r++ {
		for _, d := range doms {
			sh := lookupShapes[d.shape]
			if r < len(d.keys) {
				points = append(points, query{sql: fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s = %s",
					sh.key, sh.cols, sh.table, sh.key, quote(d.keys[r]))})
			}
			if i := r * rangeEvery; i+3 < len(d.sorted) {
				ranges = append(ranges, query{sql: fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s BETWEEN %s AND %s",
					sh.key, sh.cols, sh.table, sh.key, quote(d.sorted[i]), quote(d.sorted[i+3]))})
			}
		}
	}
	var out []query
	for i, p := range points {
		out = append(out, p)
		if i%rangeEvery == rangeEvery-1 && len(ranges) > 0 {
			out, ranges = append(out, ranges[0]), ranges[1:]
		}
	}
	return append(out, ranges...)
}

// lookupState is lookup-hot after set-up: the warmed engine and the pass.
type lookupState struct {
	fx       *fixture
	universe []query
	want     []string
	seq      []int // the pass, as indexes into universe
	score    float64
	trace    *llm.Trace
	reqs     []llm.CompletionRequest
	e        *core.Engine
	base     *baseModel
}

// setupLookup records every statement of the universe once from the live
// simulator, then builds the long-lived replaying engine and warms it: the
// universe once (filling the memo) and the pass once (settling the plan
// cache).
func setupLookup(opts options, spans *spanLog) (*lookupState, error) {
	fx, err := newFixture(opts.seed)
	if err != nil {
		return nil, err
	}
	st := &lookupState{fx: fx, universe: lookupUniverse(fx)}
	rec := fx.newRecording()
	live, err := core.Open(rec.base, lookupConfig())
	if err != nil {
		return nil, err
	}
	fx.register(live)
	scores := make([]float64, len(st.universe))
	var found, empty []int
	for i, q := range st.universe {
		res, err := live.Query(q.sql)
		if err != nil {
			return nil, fmt.Errorf("live %q: %w", q.sql, err)
		}
		st.want = append(st.want, render(res.Result))
		if scores[i], err = fx.scoreQuery(q, res.Result); err != nil {
			return nil, err
		}
		if len(res.Result.Rows) > 0 {
			found = append(found, i)
		} else {
			empty = append(empty, i)
		}
	}
	// The popularity ranking alternates statements that found a row with
	// statements that found none, each kind in prominence order. Which
	// entities a seed's model knows changes the work of a lookup; this way
	// it does not change the share of lookups that find a row.
	var rank []int
	for len(found)+len(empty) > 0 {
		if len(found) > 0 {
			rank, found = append(rank, found[0]), found[1:]
		}
		if len(empty) > 0 {
			rank, empty = append(rank, empty[0]), empty[1:]
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(opts.seed)), zipfS, zipfV, uint64(len(rank)-1))
	for i := 0; i < lookupPass; i++ {
		st.seq = append(st.seq, rank[zipf.Uint64()])
		st.score += scores[st.seq[i]] / lookupPass
	}
	if n := rec.trace.Len(); n > lookupMemo {
		return nil, fmt.Errorf("%d completions do not fit the %d-entry memo", n, lookupMemo)
	}
	st.trace, st.reqs = rec.trace, rec.log.reqs
	st.base = newBase(st.trace.Replay(fx.synth.Name()), spans)
	if st.e, err = core.Open(st.base, lookupConfig()); err != nil {
		return nil, err
	}
	fx.register(st.e)
	for i := range st.universe {
		if err := st.check(i); err != nil {
			return nil, err
		}
	}
	for _, i := range st.seq {
		if err := st.check(i); err != nil {
			return nil, err
		}
	}
	if ev := st.e.CacheStats().Evictions; ev > 0 {
		return nil, fmt.Errorf("warming evicted %d memo entries", ev)
	}
	return st, nil
}

// check runs universe statement i and compares its answer with the live
// one.
func (st *lookupState) check(i int) error {
	res, err := st.e.Query(st.universe[i].sql)
	if err != nil {
		return fmt.Errorf("replay %q: %w", st.universe[i].sql, err)
	}
	if render(res.Result) != st.want[i] {
		return fmt.Errorf("replay %q: answer differs from the live pass", st.universe[i].sql)
	}
	return nil
}

func runLookup(opts options, rep *report) error {
	var spans *spanLog
	if opts.trace {
		spans = newSpanLog()
	}
	st, err := setupRepeated(opts, rep, func() (*lookupState, error) { return setupLookup(opts, spans) })
	if err != nil {
		return err
	}
	var v virtual
	var cs coreStats
	cacheBefore, plansBefore := st.e.CacheStats(), st.e.PlanCacheStats()
	results := make([]*core.QueryResult, lookupPass)
	errs := make([]error, lookupPass)
	lat := make([]float64, lookupPass)
	pass := func(l *ledger, traced bool) error {
		start := time.Now()
		liveBefore := st.base.usage()
		before := readMem()
		for j, i := range st.seq {
			var mark int
			var s0 time.Duration
			if traced {
				mark, s0 = spans.mark(), spans.now()
			}
			m0 := l.stmtStart()
			t0 := time.Now()
			results[j], errs[j] = st.e.Query(st.universe[i].sql)
			lat[j] = float64(time.Since(t0)) / float64(time.Millisecond)
			l.countStmt(m0)
			if traced {
				s1 := spans.now()
				cs.selfMs = append(cs.selfMs, float64(s1-s0-spans.since(mark, s0, s1))/float64(time.Millisecond))
			}
		}
		busy := time.Since(start)
		after := readMem()
		l.addPass(lookupPass, busy, before, after)
		l.lat = append(l.lat, lat...)
		if !traced {
			v.stmts += lookupPass
			v.live = v.live.add(st.base.usage().sub(liveBefore))
		}
		for j, i := range st.seq {
			if errs[j] != nil || render(results[j].Result) != st.want[i] {
				l.failed++
				continue
			}
			if !traced {
				v.billed.Add(results[j].Usage)
			}
			cs.addScans(results[j].Scans)
		}
		return nil
	}
	prof, err := profileIf(opts)
	if err != nil {
		return err
	}
	ph, err := runPasses(opts, spans, true, pass)
	if err != nil {
		return err
	}
	if err := prof.fill(rep); err != nil {
		return err
	}
	ph.fill(opts, rep)
	v.fill(rep)
	cs.fill(rep)
	c, p := st.e.CacheStats(), st.e.PlanCacheStats()
	es := engineStats{
		cache: llm.CacheStats{Hits: c.Hits - cacheBefore.Hits, Misses: c.Misses - cacheBefore.Misses,
			Evictions: c.Evictions - cacheBefore.Evictions},
		plans: core.PlanCacheStats{Hits: p.Hits - plansBefore.Hits, Misses: p.Misses - plansBefore.Misses},
	}
	es.fill(rep)
	rep.set("answer_f1", st.score)
	rep.note("lookup-hot: %d distinct statements, %d recorded completions, %d statements per pass",
		len(st.universe), st.trace.Len(), lookupPass)
	if !opts.trace {
		return nil
	}
	notApplicable(rep, "solo engines have no coalescer, views, writes or server",
		"llm.coalescer.memo_hit_rate", "llm.coalescer.flight_hits", "core.view.refresh_ms", "core.view.read_us",
		"storage.insert_us", "serve.overhead_us", "serve.coalesced_share", "serve.admission_rejected")
	stmts := make([]string, lookupPass)
	for j, i := range st.seq {
		stmts[j] = st.universe[i].sql
	}
	return layerReplays(opts, rep, st.fx, st.trace, st.reqs, stmts, lookupConfig())
}
