package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/serve"
	"llmsql/internal/storage"
)

const (
	// readerRound is the number of reader statements in one round; the
	// reader opens a fresh session for each round, so its first scans are
	// answered by the group's coalescer, not its own memo.
	readerRound = 66
	// joinRows is how many INSERTs go to the joined table; later ones go
	// to a log table nobody reads, so the join's input stops growing.
	joinRows = 400
	// writerCycles is the number of writer cycles in one round.
	writerCycles = 60
	// refreshEvery is the number of writer cycles between REFRESHes.
	refreshEvery = 5
)

// serveConfig is the engine configuration of every serve-mixed session.
func serveConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Strategy = core.StrategyKeyThenAttr
	cfg.Votes = 3
	cfg.BatchSize = 4
	cfg.Parallelism = 1
	cfg.CacheCapacity = 4096
	return cfg
}

// The writer's fixed statements.
const (
	createVisits  = "CREATE TABLE visits (id INT, country TEXT, n INT)"
	createLog     = "CREATE TABLE visit_log (id INT, country TEXT, n INT)"
	createView    = "CREATE MATERIALIZED VIEW capitals AS SELECT name, capital, population FROM country"
	viewRead      = "SELECT name, capital FROM capitals WHERE population > 20"
	refreshView   = "REFRESH MATERIALIZED VIEW capitals"
	joinQuery     = "SELECT v.id, c.capital FROM visits v JOIN country c ON v.country = c.name"
	capitalsQuery = "SELECT name, capital FROM country"
)

// readerStmt is one statement the reader can send. Prepared ones go
// through prepare/stmt with args; the join's answer depends on the
// writer's progress and is checked against an invariant instead of bytes.
type readerStmt struct {
	sql      string
	literal  string // the same statement with its argument written in
	prepared int    // 1-based index of the prepared statement, 0 for none
	args     []any
	join     bool
	kind     scoreKind
	want     [][]any
}

// readerStmts spreads the reader over all four domains: a prepared scan
// per domain with two argument values, two aggregates and the hybrid join.
func readerStmts() []readerStmt {
	var out []readerStmt
	for i, p := range []struct {
		sql  string
		args [2]int
	}{
		{"SELECT name, population FROM country WHERE population > $1", [2]int{20, 50}},
		{"SELECT title, year FROM movie WHERE year >= $1", [2]int{1990, 2010}},
		{"SELECT name, field FROM laureate WHERE year < $1", [2]int{1950, 1990}},
		{"SELECT name, revenue FROM company WHERE revenue > $1", [2]int{10, 30}},
	} {
		for _, a := range p.args {
			out = append(out, readerStmt{sql: p.sql, literal: strings.Replace(p.sql, "$1", fmt.Sprint(a), 1),
				prepared: i + 1, args: []any{a}})
		}
	}
	for _, s := range []readerStmt{
		{sql: "SELECT field, COUNT(*) FROM laureate GROUP BY field", kind: grouped},
		{sql: "SELECT AVG(rating) FROM movie", kind: scalar},
		{sql: joinQuery, join: true},
	} {
		s.literal = s.sql
		out = append(out, s)
	}
	return out
}

// serveState is serve-mixed after set-up: a running server over a
// replaying group, the writer's open session, and the expected answers.
type serveState struct {
	fx     *fixture
	g      *core.EngineGroup
	srv    *serve.Server
	served chan error
	addr   string
	base   *baseModel
	trace  *llm.Trace
	reqs   []llm.CompletionRequest

	reader   []readerStmt
	seq      []int // one reader round, as indexes into reader
	score    float64
	visits   [][3]any // INSERT values by insert number
	capitals map[string]any
	wantView [][]any

	writer   *serve.Client
	cycle    int
	inserts  int          // INSERTs sent, into either table
	inserted atomic.Int64 // INSERTs into visits acknowledged
	sent     atomic.Int64 // INSERTs into visits sent
}

// wire converts a result to the form a client decodes it in.
func wire(res *core.QueryResult) ([][]any, error) {
	_, _, rows := serve.EncodeRows(res.Result)
	b, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var out [][]any
	err = dec.Decode(&out)
	return out, err
}

// sameRows compares two wire answers cell by cell.
func sameRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// setupServe records the traffic of every statement either client can
// send from the live simulator, then starts a server over a group that
// replays it, creates the writer's tables and view, and warms both
// clients' statements once.
func setupServe(opts options, spans *spanLog) (*serveState, error) {
	fx, err := newFixture(opts.seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.seed))
	sock, err := os.CreateTemp(opts.workDir, "sock-")
	if err != nil {
		return nil, err
	}
	sock.Close()
	os.Remove(sock.Name())
	st := &serveState{fx: fx, reader: readerStmts(), addr: "unix:" + sock.Name()}
	// Every statement appears equally often in a round, in a seeded order,
	// so the seed changes the interleaving but not the mix.
	for i := 0; i < readerRound; i++ {
		st.seq = append(st.seq, i%len(st.reader))
	}
	rng.Shuffle(len(st.seq), func(i, j int) { st.seq[i], st.seq[j] = st.seq[j], st.seq[i] })
	keys := fx.w.Domain("country").TopKeys(len(fx.w.Domain("country").Entities))
	for i := 0; i < 1<<16; i++ {
		st.visits = append(st.visits, [3]any{i + 1, keys[rng.Intn(len(keys))], rng.Intn(1000)})
	}
	if err := st.record(); err != nil {
		return nil, err
	}
	st.base = newBase(st.trace.Replay(fx.synth.Name()), spans)
	if st.g, err = core.NewEngineGroup(st.base, serveConfig()); err != nil {
		return nil, err
	}
	fx.register(st.g)
	st.srv = serve.NewServer(serve.Config{Group: st.g})
	ln, err := net.Listen("unix", sock.Name())
	if err != nil {
		return nil, err
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	if st.writer, err = serve.Dial(st.addr); err != nil {
		st.close()
		return nil, err
	}
	for _, ddl := range []string{createVisits, createLog, createView} {
		if err := st.exec(ddl); err != nil {
			st.close()
			return nil, err
		}
	}
	var warm roundResult
	if err := st.readerRound(&warm, nil, allOnce(len(st.reader))); err != nil {
		st.close()
		return nil, err
	}
	st.writerRound(&warm, nil, refreshEvery)
	if warm.failed > 0 {
		st.close()
		return nil, fmt.Errorf("warm-up: %d statements failed: %s", warm.failed, warm.firstErr)
	}
	return st, nil
}

func allOnce(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// record runs every statement shape once on a group over the live
// simulator: the reader's statements, the unbound scan the join's bound
// scans are a subset of, and the view's life cycle.
func (st *serveState) record() error {
	rec := st.fx.newRecording()
	g, err := core.NewEngineGroup(rec.base, serveConfig())
	if err != nil {
		return err
	}
	defer g.Close()
	st.fx.register(g)
	s := g.Session()
	defer g.CloseSession(s)
	scores := make([]float64, len(st.reader))
	for i := range st.reader {
		r := &st.reader[i]
		if r.join {
			continue
		}
		res, err := s.Query(r.literal)
		if err != nil {
			return fmt.Errorf("live %q: %w", r.literal, err)
		}
		if r.want, err = wire(res); err != nil {
			return err
		}
		if scores[i], err = st.fx.scoreQuery(query{sql: r.literal, kind: r.kind}, res.Result); err != nil {
			return err
		}
	}
	res, err := s.Query(capitalsQuery)
	if err != nil {
		return err
	}
	st.capitals = map[string]any{}
	rows, err := wire(res)
	if err != nil {
		return err
	}
	for _, row := range rows {
		st.capitals[row[0].(string)] = row[1]
	}
	w := g.Session()
	defer g.CloseSession(w)
	for _, ddl := range []string{createView, refreshView} {
		if err := w.Exec(ddl); err != nil {
			return fmt.Errorf("live %q: %w", ddl, err)
		}
	}
	if res, err = w.Query(viewRead); err != nil {
		return err
	}
	if st.wantView, err = wire(res); err != nil {
		return err
	}
	var n int
	for _, i := range st.seq {
		if !st.reader[i].join {
			st.score += scores[i]
			n++
		}
	}
	st.score /= float64(max(n, 1))
	st.trace, st.reqs = rec.trace, rec.log.reqs
	return nil
}

// close stops the writer, the server and the group.
func (st *serveState) close() error {
	var errs []error
	if st.writer != nil {
		errs = append(errs, st.writer.Close())
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, st.srv.Shutdown(ctx))
		cancel()
		errs = append(errs, <-st.served)
	}
	if st.g != nil {
		errs = append(errs, st.g.Close())
	}
	return errors.Join(errs...)
}

func (st *serveState) exec(sqlText string) error {
	resp, err := st.writer.Exec(sqlText)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%q: %s", sqlText, resp.Error)
	}
	return nil
}

// roundResult is what one client saw in one round.
type roundResult struct {
	lat, writeLat, refreshLat, viewLat []float64
	windows                            [][2]time.Duration
	stmts, failed                      int
	firstErr                           string
	billed                             llm.Usage
	coalesced                          int
	cs                                 coreStats
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// timed sends one request and records its latency and, in a traced round,
// its window on the span clock.
func (st *serveState) timed(c *serve.Client, req serve.Request, r *roundResult, lat *[]float64, spans *spanLog) (*serve.Response, error) {
	var s0 time.Duration
	if spans != nil {
		s0 = spans.now()
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	d := float64(time.Since(t0)) / float64(time.Millisecond)
	r.lat = append(r.lat, d)
	if lat != nil {
		*lat = append(*lat, d)
	}
	if spans != nil {
		r.windows = append(r.windows, [2]time.Duration{s0, spans.now()})
	}
	r.stmts++
	if err != nil {
		return nil, err
	}
	if resp.Usage != nil {
		r.billed.Add(*resp.Usage)
	}
	r.cs.addScans(resp.Scans)
	for _, s := range resp.Scans {
		r.coalesced += s.CoalescedHits
	}
	if !resp.OK {
		r.fail("%s: %s", req.SQL, resp.Error)
		return nil, nil
	}
	return resp, nil
}

// readerRound opens a fresh session, prepares the reader's statements and
// sends seq.
func (st *serveState) readerRound(r *roundResult, spans *spanLog, seq []int) error {
	c, err := serve.Dial(st.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	handles := map[int]int64{}
	for _, s := range st.reader {
		if s.prepared == 0 || handles[s.prepared] != 0 {
			continue
		}
		resp, err := c.Do(serve.Request{Op: "prepare", SQL: s.sql})
		if err != nil {
			return err
		}
		if !resp.OK {
			return fmt.Errorf("prepare %q: %s", s.sql, resp.Error)
		}
		handles[s.prepared] = resp.Stmt
	}
	for _, i := range seq {
		s := st.reader[i]
		req := serve.Request{Op: "query", SQL: s.sql}
		if s.prepared != 0 {
			req = serve.Request{Op: "stmt", Stmt: handles[s.prepared], Args: s.args}
		}
		lo := st.inserted.Load()
		resp, err := st.timed(c, req, r, nil, spans)
		if err != nil {
			return err
		}
		if resp == nil {
			continue
		}
		switch {
		case s.join:
			if msg := st.checkJoin(resp.Rows, lo, st.sent.Load()); msg != "" {
				r.fail("%s: %s", s.sql, msg)
			}
		case !sameRows(resp.Rows, s.want):
			r.fail("%s: answer differs from the live pass", s.literal)
		}
	}
	return nil
}

// checkJoin checks the hybrid join against the writer's progress: its ids
// must be exactly the visits rows inserted so far whose country the model
// knows, for some count of inserts between lo (acknowledged before the
// query was sent) and hi (sent before its answer came back), and each row
// must carry that country's capital.
func (st *serveState) checkJoin(rows [][]any, lo, hi int64) string {
	lo, hi = min(lo, joinRows), min(hi, joinRows)
	seen := make(map[int64]bool, len(rows))
	for _, row := range rows {
		num, ok := row[0].(json.Number)
		if !ok {
			return "id is not a number"
		}
		id, err := num.Int64()
		if err != nil || id < 1 || id > hi || seen[id] {
			return fmt.Sprintf("unexpected id %v", row[0])
		}
		seen[id] = true
		capital, known := st.capitals[st.visits[id-1][1].(string)]
		if !known || capital != row[1] {
			return fmt.Sprintf("id %d: wrong capital %v", id, row[1])
		}
	}
	// Inserts become visible in order, so the answer holds every known
	// row up to the newest id it shows, and at least those up to lo.
	newest := int64(0)
	for id := range seen {
		newest = max(newest, id)
	}
	for id := int64(1); id <= max(newest, lo); id++ {
		if _, known := st.capitals[st.visits[id-1][1].(string)]; known && !seen[id] {
			return fmt.Sprintf("id %d is missing", id)
		}
	}
	return ""
}

// writerRound runs writer cycles: an INSERT and a view read per cycle,
// and a REFRESH every refreshEvery cycles. With one INSERT per view read
// the round's median statement falls inside the view reads, not on the
// edge between them and the faster INSERTs.
func (st *serveState) writerRound(r *roundResult, spans *spanLog, cycles int) {
	for c := 0; c < cycles; c++ {
		v := st.visits[st.inserts%len(st.visits)]
		table := "visit_log"
		if st.inserts < joinRows {
			table = "visits"
			st.sent.Add(1)
		}
		st.inserts++
		sqlText := fmt.Sprintf("INSERT INTO %s VALUES (%d, %s, %d)", table, v[0], quote(v[1].(string)), v[2])
		resp, err := st.timed(st.writer, serve.Request{Op: "exec", SQL: sqlText}, r, &r.writeLat, spans)
		if err != nil {
			r.fail("%s: %v", sqlText, err)
		} else if resp != nil && table == "visits" {
			st.inserted.Add(1)
		}
		resp, err = st.timed(st.writer, serve.Request{Op: "query", SQL: viewRead}, r, &r.viewLat, spans)
		switch {
		case err != nil:
			r.fail("%s: %v", viewRead, err)
		case resp != nil && !sameRows(resp.Rows, st.wantView):
			r.fail("%s: answer differs from the live pass", viewRead)
		}
		st.cycle++
		if st.cycle%refreshEvery == 0 {
			if _, err := st.timed(st.writer, serve.Request{Op: "exec", SQL: refreshView}, r, &r.refreshLat, spans); err != nil {
				r.fail("%s: %v", refreshView, err)
			}
		}
	}
}

func runServeMixed(opts options, rep *report) error {
	var spans *spanLog
	if opts.trace {
		spans = newSpanLog()
	}
	// Every set-up starts its own server on its own socket; all but the
	// last are stopped once set-up is over, so stopping one is not timed
	// as part of the next.
	var states []*serveState
	defer func() {
		for _, s := range states {
			s.close()
		}
	}()
	st, err := setupRepeated(opts, rep, func() (*serveState, error) {
		s, err := setupServe(opts, spans)
		if err == nil {
			states = append(states, s)
		}
		return s, err
	})
	if err != nil {
		return err
	}
	for _, s := range states[:len(states)-1] {
		if err := s.close(); err != nil {
			return err
		}
	}
	states = []*serveState{st}
	var v virtual
	var all roundResult
	groupBefore := st.g.Stats()
	pass := func(l *ledger, traced bool) error {
		var tr *spanLog
		if traced {
			tr = spans
		}
		start := time.Now()
		liveBefore := st.base.usage()
		before := readMem()
		var rr, wr roundResult
		var rerr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rerr = st.readerRound(&rr, tr, st.seq)
		}()
		go func() {
			defer wg.Done()
			st.writerRound(&wr, tr, writerCycles)
		}()
		wg.Wait()
		busy := time.Since(start)
		after := readMem()
		if rerr != nil {
			return rerr
		}
		for _, r := range []*roundResult{&rr, &wr} {
			l.lat = append(l.lat, r.lat...)
			l.writeLat = append(l.writeLat, r.writeLat...)
			l.failed += r.failed
			if r.firstErr != "" && all.firstErr == "" {
				all.firstErr = r.firstErr
			}
			if traced {
				all.windows = append(all.windows, r.windows...)
				all.refreshLat = append(all.refreshLat, r.refreshLat...)
				all.viewLat = append(all.viewLat, r.viewLat...)
				all.coalesced += r.coalesced
				all.billed.Add(r.billed)
				all.cs.add(r.cs)
			} else {
				v.billed.Add(r.billed)
				v.stmts += r.stmts
			}
		}
		l.addPass(rr.stmts+wr.stmts, busy, before, after)
		if !traced {
			v.live = v.live.add(st.base.usage().sub(liveBefore))
		}
		return nil
	}
	prof, err := profileIf(opts)
	if err != nil {
		return err
	}
	ph, err := runPasses(opts, spans, false, pass)
	if err != nil {
		return err
	}
	if err := prof.fill(rep); err != nil {
		return err
	}
	ph.fill(opts, rep)
	if all.firstErr != "" {
		rep.note("first failure: %s", all.firstErr)
	}
	v.fill(rep)
	rep.set("answer_f1", st.score)
	if !opts.trace {
		return nil
	}
	return st.traced(opts, rep, &all, spans, groupBefore)
}

// traced reports serve-mixed's per-layer metrics.
func (st *serveState) traced(opts options, rep *report, all *roundResult, spans *spanLog, before core.GroupStats) error {
	spans.mu.Lock()
	base := append([][2]time.Duration(nil), spans.spans...)
	spans.mu.Unlock()
	for _, w := range all.windows {
		self := w[1] - w[0] - unionWithin(base, w[0], w[1])
		all.cs.selfMs = append(all.cs.selfMs, float64(self)/float64(time.Millisecond))
	}
	all.cs.fill(rep)
	gs := st.g.Stats()
	coal := gs.Coalescer
	asked := (coal.LiveCalls - before.Coalescer.LiveCalls) + (coal.FlightHits - before.Coalescer.FlightHits) +
		(coal.MemoHits - before.Coalescer.MemoHits)
	rep.set("llm.coalescer.memo_hit_rate", ratio(coal.MemoHits-before.Coalescer.MemoHits, asked))
	rep.set("llm.coalescer.flight_hits", float64(coal.FlightHits-before.Coalescer.FlightHits))
	rep.set("serve.coalesced_share", ratio(all.coalesced, all.billed.Calls))
	rep.set("serve.admission_rejected", float64(st.srv.Stats().Admission.Rejected))
	rep.set("llm.cache.hit_rate", ratio(all.billed.CachedCalls, all.billed.Calls))
	rf, _ := quantile(all.refreshLat, 0.5)
	rep.set("core.view.refresh_ms", rf)
	vr, _ := quantile(all.viewLat, 0.5)
	rep.set("core.view.read_us", vr*1000)
	notApplicable(rep, "session memo and plan-cache counters are not visible through the serving group",
		"llm.cache.evictions", "plan.cache_hit_rate")
	rep.note("llm.cache.hit_rate is the share of billed calls the sessions' memos answered")
	if err := st.insertReplay(rep); err != nil {
		return err
	}
	if err := st.overhead(rep); err != nil {
		return err
	}
	var stmts []string
	for _, i := range st.seq {
		stmts = append(stmts, st.reader[i].literal)
	}
	stmts = append(stmts, viewRead, refreshView, fmt.Sprintf("INSERT INTO visits VALUES (1, %s, 2)", quote("x")))
	return layerReplays(opts, rep, st.fx, st.trace, st.reqs, stmts, serveConfig(), createVisits)
}

// insertReplay times the writer's rows inserted straight into a storage
// table.
func (st *serveState) insertReplay(rep *report) error {
	rows := make([]rel.Row, joinRows)
	for i := range rows {
		v := st.visits[i]
		rows[i] = rel.Row{rel.Int(int64(v[0].(int))), rel.Text(v[1].(string)), rel.Int(int64(v[2].(int)))}
	}
	schema := rel.NewSchema(rel.Column{Name: "id", Type: rel.TypeInt}, rel.Column{Name: "country", Type: rel.TypeText},
		rel.Column{Name: "n", Type: rel.TypeInt})
	var tbl *storage.Table
	var err error
	us := sweep(len(rows), func() {
		if tbl, err = storage.NewDB().CreateTable("visits", schema); err != nil {
			tbl = nil
		}
	}, func(i int) {
		if tbl != nil {
			err = errors.Join(err, tbl.Insert(rows[i]))
		}
	})
	if err != nil {
		return err
	}
	rep.set("storage.insert_us", us)
	return nil
}

// overhead compares the reader's statements sent over the protocol with
// the same statements run on a session engine of the group directly.
func (st *serveState) overhead(rep *report) error {
	c, err := serve.Dial(st.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	s := st.g.Session()
	defer st.g.CloseSession(s)
	var stmts []readerStmt
	for _, r := range st.reader {
		if !r.join {
			stmts = append(stmts, r)
		}
	}
	var ferr error
	note := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	wireUS := sweep(len(stmts), nil, func(i int) {
		resp, err := c.Query(stmts[i].sql, stmts[i].args, nil)
		if err == nil && !resp.OK {
			err = errors.New(resp.Error)
		}
		note(err)
	})
	directUS := sweep(len(stmts), nil, func(i int) {
		_, err := s.Query(stmts[i].sql, stmts[i].args...)
		note(err)
	})
	if ferr != nil {
		return ferr
	}
	rep.set("serve.overhead_us", max(0, wireUS-directUS))
	return nil
}
