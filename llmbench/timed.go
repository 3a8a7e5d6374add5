package main

import (
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/llm"
)

// minSetupTime is how long set-up repeats for at least: a set-up that
// takes a fraction of a second is repeated more often, so its median is as
// steady as a longer one's.
const minSetupTime = 2 * time.Second

// setupRepeated runs set-up at least opts.setups times and for at least
// minSetupTime (a single time when opts.setups is 1), reports the median as
// setup_s and keeps the last state.
func setupRepeated[S any](opts options, rep *report, setup func() (S, error)) (S, error) {
	var st S
	var times []float64
	var total time.Duration
	for i := 0; i < opts.setups || (opts.setups > 1 && total < minSetupTime); i++ {
		start := time.Now()
		s, err := setup()
		if err != nil {
			return st, err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
		st = s
	}
	rep.set("setup_s", median(times))
	rep.note("setup_s is the median of %d set-ups: %.4g s", len(times), times)
	return st, nil
}

// countPasses is how many untimed passes allocs_per_stmt is counted on.
const countPasses = 5

// phase is the outcome of a timed phase: the untraced ledger that feeds
// the end-to-end metrics and, in a traced run, the traced one.
type phase struct {
	untraced, traced *ledger
	// counted holds the untimed passes allocs_per_stmt is counted on.
	counted *ledger
	peakMB  float64
}

// runPasses first makes countPasses untimed counting passes, then calls
// pass until the time budget is spent. perStmt says the workload runs one
// statement at a time and can count each statement's allocations. In a
// traced run the passes alternate between traced and untraced, so
// trace.overhead_frac compares runs of the same length and heap state.
func runPasses(opts options, spans *spanLog, perStmt bool, pass func(l *ledger, traced bool) error) (phase, error) {
	ph := phase{untraced: &ledger{}, traced: &ledger{}, counted: &ledger{perStmt: perStmt}}
	// The counting passes run on one processor with the collector paused.
	// sync.Pool keeps a cache per processor and drops it at each
	// collection, so with either left free a pass would pick up a few
	// refill allocations that depend on scheduling.
	procs := runtime.GOMAXPROCS(1)
	for i := 0; i < countPasses; i++ {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		err := pass(ph.counted, false)
		debug.SetGCPercent(gc)
		if err != nil {
			runtime.GOMAXPROCS(procs)
			return ph, err
		}
	}
	runtime.GOMAXPROCS(procs)
	// Hand the counting passes' heap back now, so the scavenger does not
	// return it during the timed phase.
	debug.FreeOSMemory()
	peak := startHeapPeak()
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	// A traced run makes at least one pass of each kind.
	for i := 0; time.Now().Before(deadline) || (opts.trace && i < 2); i++ {
		traced := opts.trace && i%2 == 1
		l := ph.untraced
		if traced {
			l = ph.traced
		}
		if spans != nil {
			spans.enabled.Store(traced)
		}
		if err := pass(l, traced); err != nil {
			peak.Stop()
			return ph, err
		}
	}
	if spans != nil {
		spans.enabled.Store(false)
	}
	ph.peakMB = peak.Stop()
	return ph, nil
}

// fill reports the phase's real ledger, its failures and the tracing
// overhead.
func (ph phase) fill(opts options, rep *report) {
	ph.untraced.fill(rep)
	allocs, bytes := slices.Min(ph.counted.allocs), slices.Min(ph.counted.bytes)
	if c := ph.counted; c.perStmt {
		allocs, bytes = c.leastPerStmt(c.stmts / countPasses)
	}
	rep.set("allocs_per_stmt", allocs)
	rep.set("alloc_kb_per_stmt", bytes/1024)
	rep.set("peak_heap_mb", ph.peakMB)
	rep.attempted = ph.untraced.stmts + ph.traced.stmts + ph.counted.stmts
	rep.failed = ph.untraced.failed + ph.traced.failed + ph.counted.failed
	rep.set("failed_frac", ratio(rep.failed, rep.attempted))
	overhead := 0.0
	if opts.trace && ph.traced.stmts > 0 {
		overhead = 1 - (float64(ph.traced.stmts)/ph.traced.busy.Seconds())/
			(float64(ph.untraced.stmts)/ph.untraced.busy.Seconds())
	}
	rep.set("trace.overhead_frac", overhead)
}

// engineStats sums the cache counters of solo engines.
type engineStats struct {
	cache llm.CacheStats
	plans core.PlanCacheStats
}

func (s *engineStats) add(e *core.Engine) {
	c, p := e.CacheStats(), e.PlanCacheStats()
	s.cache.Hits += c.Hits
	s.cache.Misses += c.Misses
	s.cache.Evictions += c.Evictions
	s.plans.Hits += p.Hits
	s.plans.Misses += p.Misses
}

func (s *engineStats) fill(rep *report) {
	rep.set("llm.cache.hit_rate", ratio(s.cache.Hits, s.cache.Hits+s.cache.Misses))
	rep.set("llm.cache.evictions", float64(s.cache.Evictions))
	rep.set("plan.cache_hit_rate", ratio(int(s.plans.Hits), int(s.plans.Hits+s.plans.Misses)))
}

// notApplicable reports metrics a workload does not exercise as 0.
func notApplicable(rep *report, why string, names ...string) {
	for _, n := range names {
		rep.set(n, 0)
	}
	rep.note("0 by design (%s): %v", why, names)
}

// parsers are core's completion parsers, whose CPU share is core.parse_share.
var parsers = []string{
	"llmsql/internal/core.parseListCompletion",
	"llmsql/internal/core.parseAttrCompletion",
	"llmsql/internal/core.parseAttrBatchCompletion",
}

// profiler is a CPU profile taken over a traced run's timed phase.
type profiler struct{ p *cpuProfile }

func profileIf(opts options) (profiler, error) {
	if !opts.trace {
		return profiler{}, nil
	}
	p, err := startCPUProfile()
	return profiler{p}, err
}

// fill stops the profile and reports core.parse_share.
func (pr profiler) fill(rep *report) error {
	if pr.p == nil {
		return nil
	}
	share, samples, err := pr.p.share(parsers...)
	if err != nil {
		return err
	}
	rep.set("core.parse_share", share)
	rep.note("core.parse_share is the share of %d engine CPU samples inside core's completion parsers", samples)
	return nil
}
