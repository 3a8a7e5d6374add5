package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/plan"
	"llmsql/internal/sql"
)

// sweepReps is how many times each layer replay sweeps its stream; the
// median sweep is reported.
const sweepReps = 5

// sweep times fn over n items, repeated sweepReps times with prepare run
// untimed before each, and returns the median µs per item.
func sweep(n int, prepare func(), fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var per []float64
	for r := 0; r < sweepReps; r++ {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(start))/float64(time.Microsecond)/float64(n))
	}
	return median(per)
}

// allocsPer counts heap allocations per item of one sweep.
func allocsPer(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	before := readMem()
	for i := 0; i < n; i++ {
		fn(i)
	}
	after := readMem()
	return float64(after.mallocs-before.mallocs) / float64(n)
}

// uniqueRequests drops repeated requests, keeping first occurrences.
func uniqueRequests(name string, reqs []llm.CompletionRequest) []llm.CompletionRequest {
	seen := map[string]bool{}
	var out []llm.CompletionRequest
	for _, r := range reqs {
		fp := llm.Fingerprint(name, r)
		if !seen[fp] {
			seen[fp] = true
			out = append(out, r)
		}
	}
	return out
}

// layerReplays measures each layer standalone, from outside: the
// workload's recorded request stream pushed through each llm wrapper over
// Trace.Replay, and its statement stream through sql.Normalize, sql.Parse,
// Engine.Explain on a plan-cache-disabled engine and exec.Execute on the
// ground-truth row store. A wrapper's _us figure is its own time per call:
// the wrapper over the replayer minus the bare replayer.
func layerReplays(opts options, rep *report, fx *fixture, tr *llm.Trace, reqs []llm.CompletionRequest, stmts []string, cfg core.Config, ddl ...string) error {
	name := fx.synth.Name()
	reqs = uniqueRequests(name, reqs)
	n := len(reqs)
	replay := tr.Replay(name)
	var firstErr error
	call := func(m llm.Model) func(i int) {
		return func(i int) {
			if _, err := m.Complete(reqs[i]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	self := func(us, base float64) float64 { return max(0, us-base) }

	base := sweep(n, nil, call(replay))
	rep.set("llm.base.us_per_call", base)
	rep.set("llm.fingerprint_us", sweep(n, nil, func(i int) { llm.Fingerprint(name, reqs[i]) }))
	rep.set("llm.counting_us", self(sweep(n, nil, call(llm.NewCounting(replay))), base))
	rep.set("llm.retrier.pass_us", self(sweep(n, nil, call(llm.NewRetrier(replay, llm.RetryPolicy{}))), base))

	var cache *llm.CacheModel
	rep.set("llm.cache.miss_us", self(sweep(n, func() { cache = llm.NewCacheSized(replay, n+1) }, func(i int) { call(cache)(i) }), base))
	rep.set("llm.cache.hit_us", sweep(n, nil, func(i int) { call(cache)(i) }))
	var coal *llm.Coalescer
	rep.set("llm.coalescer.us", self(sweep(n, func() { coal = llm.NewCoalescerSized(replay, n+1) }, func(i int) { call(coal)(i) }), base))

	if err := diskReplays(opts, rep, replay, n, call, base); err != nil {
		return err
	}
	synthN := min(n, 1000)
	rep.set("synth.us_per_call", sweep(synthN, nil, call(fx.synth)))
	if firstErr != nil {
		return fmt.Errorf("layer replay: %w", firstErr)
	}
	return statementReplays(rep, fx, replay, stmts, cfg, ddl)
}

// diskReplays measures the persistent cache: misses that append a record,
// the bytes each record takes, opening the filled directory, and hits.
func diskReplays(opts options, rep *report, replay llm.Model, n int, call func(llm.Model) func(int), base float64) error {
	var dc *llm.DiskCache
	var dirs []string
	var openErr error
	open := func(dir string) {
		if dc != nil {
			if err := dc.Close(); err != nil && openErr == nil {
				openErr = err
			}
		}
		var err error
		if dc, err = llm.NewDiskCache(replay, dir, 0); err != nil && openErr == nil {
			openErr = err
		}
	}
	miss := sweep(n, func() {
		dir, err := freshDir(opts, "disk")
		if err != nil {
			openErr = err
			return
		}
		dirs = append(dirs, dir)
		open(dir)
	}, func(i int) { call(dc)(i) })
	if openErr != nil {
		return openErr
	}
	last := dirs[len(dirs)-1]
	if err := dc.Close(); err != nil {
		return err
	}
	dc = nil
	size, err := dirSize(last)
	if err != nil {
		return err
	}
	var opens []float64
	for r := 0; r < sweepReps; r++ {
		start := time.Now()
		open(last)
		opens = append(opens, float64(time.Since(start))/float64(time.Millisecond))
	}
	hit := sweep(n, nil, func(i int) { call(dc)(i) })
	if err := dc.Close(); err != nil {
		return err
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
	if openErr != nil {
		return openErr
	}
	rep.set("llm.diskcache.miss_us", max(0, miss-base))
	rep.set("llm.diskcache.hit_us", hit)
	rep.set("llm.diskcache.bytes_written_per_call", float64(size)/float64(n))
	rep.set("llm.diskcache.open_ms", median(opens))
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// statementReplays pushes the statement stream through the front end and
// the executor. Plan time is Engine.Explain on an engine without a plan
// cache minus the parse time of the same statements; statements Explain
// cannot plan outside their session (a view read, a write) are left out.
func statementReplays(rep *report, fx *fixture, model llm.Model, stmts []string, cfg core.Config, ddl []string) error {
	cfg.PlanCacheCapacity = -1
	cfg.CacheDir = ""
	e, err := core.Open(model, cfg)
	if err != nil {
		return err
	}
	fx.register(e)
	for _, d := range ddl {
		if err := e.Exec(d); err != nil {
			return err
		}
	}
	var planned []string
	var nodes []plan.Node
	for _, s := range stmts {
		if _, err := e.Explain(s); err == nil {
			planned = append(planned, s)
		}
		if node, err := fx.truthPlan(s); err == nil {
			nodes = append(nodes, node)
		}
	}
	if len(planned) == 0 {
		return fmt.Errorf("no statement of the stream plans")
	}
	n := len(stmts)
	rep.set("sql.normalize_us", sweep(n, nil, func(i int) { sql.Normalize(stmts[i]) }))
	rep.set("sql.parse_us", sweep(n, nil, func(i int) { sql.Parse(stmts[i]) }))
	rep.set("sql.parse_allocs", allocsPer(n, func(i int) { sql.Parse(stmts[i]) }))
	m := len(planned)
	parseUS := sweep(m, nil, func(i int) { sql.Parse(planned[i]) })
	parseAllocs := allocsPer(m, func(i int) { sql.Parse(planned[i]) })
	rep.set("plan.plan_us", max(0, sweep(m, nil, func(i int) { e.Explain(planned[i]) })-parseUS))
	rep.set("plan.plan_allocs", max(0, allocsPer(m, func(i int) { e.Explain(planned[i]) })-parseAllocs))
	src := &exec.StorageSource{DB: fx.truth}
	rep.set("exec.execute_us", sweep(len(nodes), nil, func(i int) { exec.Execute(nodes[i], src) }))
	rep.note("layer replays: %d statements (%d planned, %d executed on the ground truth)", n, m, len(nodes))
	return nil
}
