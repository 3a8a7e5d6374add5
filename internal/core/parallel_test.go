package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"llmsql/internal/llm"
	"llmsql/internal/rel"
	"llmsql/internal/world"
)

// parWorld returns a small synthetic world for the parallel-pipeline tests.
func parWorld() *world.World {
	return world.Generate(world.Config{Seed: 7, Countries: 30, Movies: 15, Laureates: 10, Companies: 10})
}

func worldEngine(w *world.World, cfg Config) *Engine {
	e := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
	for _, name := range w.DomainNames() {
		e.RegisterWorldDomain(w.Domain(name))
	}
	return e
}

// renderRows serializes rows byte-exactly for comparison.
func renderRows(rows []rel.Row) string {
	var b strings.Builder
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// scanStatsEqual compares every ScanStats field — the determinism contract
// says parallelism changes none of them.
func scanStatsEqual(a, b []ScanStats) bool { return reflect.DeepEqual(a, b) }

func TestKeyThenAttrDeterministicAcrossParallelism(t *testing.T) {
	w := parWorld()
	query := "SELECT name, capital, population FROM country"
	run := func(parallelism int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Votes = 3
		cfg.MaxRounds = 3
		cfg.Temperature = 0.7
		cfg.Parallelism = parallelism
		return worldEngine(w, cfg).Query(query)
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		par, err := run(p)
		if err != nil {
			t.Fatal(err)
		}
		if renderRows(par.Result.Rows) != renderRows(serial.Result.Rows) {
			t.Fatalf("parallelism %d changed result rows", p)
		}
		if !scanStatsEqual(par.Scans, serial.Scans) {
			t.Fatalf("parallelism %d changed scan stats:\nserial %+v\npar    %+v", p, serial.Scans, par.Scans)
		}
	}
}

func TestFullTableDeterministicAcrossParallelism(t *testing.T) {
	w := parWorld()
	query := "SELECT name, capital FROM country"
	run := func(parallelism int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Temperature = 0.8
		cfg.MaxRounds = 6
		cfg.Parallelism = parallelism
		return worldEngine(w, cfg).Query(query)
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(par.Result.Rows) != renderRows(serial.Result.Rows) {
		t.Fatal("parallel full-table scan changed result rows")
	}
	if !scanStatsEqual(par.Scans, serial.Scans) {
		t.Fatalf("parallel full-table scan changed stats:\nserial %+v\npar    %+v", serial.Scans, par.Scans)
	}
	// Speculative prefetch may issue more calls than the serial path
	// consumed, but never fewer.
	if par.Usage.Calls < serial.Usage.Calls {
		t.Fatalf("parallel calls %d < serial %d", par.Usage.Calls, serial.Usage.Calls)
	}
}

func TestPagedStrategyStaysSerial(t *testing.T) {
	// Paged rounds form a dependency chain; Parallelism must not change
	// calls, rows or stats.
	w := parWorld()
	run := func(parallelism int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyPaged
		cfg.Temperature = 0
		cfg.MaxRounds = 8
		cfg.Parallelism = parallelism
		return worldEngine(w, cfg).Query("SELECT name FROM country")
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if par.Usage.Calls != serial.Usage.Calls {
		t.Fatalf("paged calls changed: %d vs %d", par.Usage.Calls, serial.Usage.Calls)
	}
	if renderRows(par.Result.Rows) != renderRows(serial.Result.Rows) {
		t.Fatal("paged rows changed")
	}
}

func TestParallelismShortensCriticalPath(t *testing.T) {
	w := parWorld()
	query := "SELECT name, capital, population FROM country"
	wallAt := func(parallelism int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Votes = 3
		cfg.MaxRounds = 2
		cfg.Temperature = 0.7
		cfg.Parallelism = parallelism
		return worldEngine(w, cfg).Query(query)
	}
	serial, err := wallAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Usage.SimWall != serial.Usage.SimLatency {
		t.Fatalf("serial wall %v must equal total %v", serial.Usage.SimWall, serial.Usage.SimLatency)
	}
	par, err := wallAt(8)
	if err != nil {
		t.Fatal(err)
	}
	if par.Usage.SimWall >= serial.Usage.SimWall/2 {
		t.Fatalf("wall at parallelism 8 (%v) not even 2x better than serial (%v)",
			par.Usage.SimWall, serial.Usage.SimWall)
	}
	if par.Usage.SimWall <= 0 {
		t.Fatal("wall latency must be positive")
	}
}

func TestCacheScanStatsDeterministicAcrossParallelism(t *testing.T) {
	// Cache counters in ScanStats come from the consumed responses' Cached
	// flags, so a cold query must report identical stats at any
	// parallelism even though speculative prefetch touches the cache.
	w := parWorld()
	run := func(p int) (*QueryResult, error) {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Votes = 2
		cfg.MaxRounds = 3
		cfg.Temperature = 0.7
		cfg.Parallelism = p
		cfg.CacheCapacity = 4096
		return worldEngine(w, cfg).Query("SELECT name, capital FROM country")
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(par.Result.Rows) != renderRows(serial.Result.Rows) {
		t.Fatal("cache+parallelism changed result rows")
	}
	if !scanStatsEqual(par.Scans, serial.Scans) {
		t.Fatalf("cache+parallelism changed scan stats:\nserial %+v\npar    %+v", serial.Scans, par.Scans)
	}
	if serial.Scans[0].CacheMisses == 0 {
		t.Fatalf("cold scan must record misses: %+v", serial.Scans)
	}
}

func TestConcurrentQueriesOneEngine(t *testing.T) {
	// Many goroutines share one engine with a parallel scan pipeline and a
	// bounded cache — meaningful under -race.
	w := parWorld()
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Votes = 2
	cfg.MaxRounds = 2
	cfg.Temperature = 0.7
	cfg.Parallelism = 4
	cfg.CacheCapacity = 256
	e := worldEngine(w, cfg)

	want, err := e.Query("SELECT name, capital FROM country")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := renderRows(want.Result.Rows)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Query("SELECT name, capital FROM country")
			if err != nil {
				errs <- err
				return
			}
			if got := renderRows(res.Result.Rows); got != wantRows {
				errs <- fmt.Errorf("concurrent query diverged")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if e.CacheStats().Hits == 0 {
		t.Fatal("repeated identical queries must hit the cache")
	}
}

func TestRunTasksSerialAndParallel(t *testing.T) {
	// Parallelism below 1 runs serially; above n, n workers suffice.
	for _, c := range []struct{ p, n int }{{1, 100}, {4, 100}, {0, 5}, {3, 0}, {3, 1}, {8, 3}} {
		got := make([]int, c.n)
		runs := make([]int32, c.n)
		if err := runTasks(c.p, c.n, func(i int) error {
			atomic.AddInt32(&runs[i], 1)
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i || runs[i] != 1 {
				t.Fatalf("p=%d n=%d slot %d: %d after %d runs", c.p, c.n, i, v, runs[i])
			}
		}
	}
}

func TestRunTasksReturnsLowestIndexedError(t *testing.T) {
	for _, p := range []int{1, 8} {
		err := runTasks(p, 50, func(i int) error {
			if i >= 10 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 10 failed" {
			t.Fatalf("p=%d: want lowest-indexed error, got %v", p, err)
		}
	}
}

func TestRunTasksNeverExceedsParallelism(t *testing.T) {
	for _, par := range []int{2, 3, 8} {
		var inFlight, peak atomic.Int32
		err := runTasks(par, 200, func(int) error {
			now := inFlight.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			runtime.Gosched()
			inFlight.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int32(par) {
			t.Fatalf("parallelism %d: %d tasks ran at once", par, p)
		}
	}
}

// TestRunTasksStopsAfterFailure fails every index from m on. A worker that
// runs a failing task records the failure before it takes another index,
// so each worker runs at most one failing task: the started indices are a
// prefix of at most m+parallelism indices, and the error is index m's.
func TestRunTasksStopsAfterFailure(t *testing.T) {
	for _, c := range []struct{ par, m int }{{2, 0}, {4, 0}, {4, 7}, {3, 20}} {
		const n = 100
		var log startLog
		err := runTasks(c.par, n, func(i int) error {
			log.add(i)
			runtime.Gosched()
			if i >= c.m {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != fmt.Sprintf("task %d", c.m) {
			t.Fatalf("par=%d m=%d: got error %v, want task %d's", c.par, c.m, err, c.m)
		}
		if !log.prefix() {
			t.Fatalf("par=%d m=%d: started indices %v are not a prefix", c.par, c.m, log.started)
		}
		if got := len(log.started); got > c.m+c.par {
			t.Fatalf("par=%d m=%d: %d tasks started, at most m+parallelism = %d may", c.par, c.m, got, c.m+c.par)
		}
	}
}

// TestRunTasksLowestErrorWhenHigherFailsFirst makes the higher index fail first
// in time: the error reported is still the lower index's.
func TestRunTasksLowestErrorWhenHigherFailsFirst(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	highDone := make(chan struct{})
	err := runTasks(2, 2, func(i int) error {
		if i == 1 {
			defer close(highDone)
			return errHigh
		}
		<-highDone
		return errLow
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("got %v, want the lowest-indexed error", err)
	}
}

// TestRunTasksAllocs pins the fan-out's own cost: nothing when serial, and
// two allocations otherwise — the shared pool state and the one worker
// function its goroutines share — whatever the width and task count.
func TestRunTasksAllocs(t *testing.T) {
	slots := make([]int, 24)
	task := func(i int) error { slots[i] = i; return nil }
	for _, c := range []struct {
		p, n int
		want float64
	}{{1, 24, 0}, {4, 1, 0}, {2, 24, 2}, {8, 24, 2}, {8, 3, 2}} {
		if got := testing.AllocsPerRun(100, func() { _ = runTasks(c.p, c.n, task) }); got != c.want {
			t.Errorf("runTasks(%d, %d) allocated %.1f times, want %.0f", c.p, c.n, got, c.want)
		}
	}
}

// TestRunTasksCallerWorks makes both tasks of a width-2 fan-out wait for
// each other, so each of the two workers holds one: one of them must be
// the calling goroutine, since only one other goroutine is started.
func TestRunTasksCallerWorks(t *testing.T) {
	caller := goroutineID()
	var arrived sync.WaitGroup
	arrived.Add(2)
	ids := make([]string, 2)
	if err := runTasks(2, 2, func(i int) error {
		ids[i] = goroutineID()
		arrived.Done()
		arrived.Wait()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ids[0] == ids[1] || (ids[0] != caller && ids[1] != caller) {
		t.Fatalf("tasks ran on goroutines %v, want the caller %s and one other", ids, caller)
	}
}

// goroutineID returns the running goroutine's number from its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}

// startLog records which task indices started.
type startLog struct {
	mu      sync.Mutex
	started []int
}

func (l *startLog) add(i int) {
	l.mu.Lock()
	l.started = append(l.started, i)
	l.mu.Unlock()
}

// prefix reports whether the started indices are exactly 0..len-1.
func (l *startLog) prefix() bool {
	seen := make([]bool, len(l.started))
	for _, i := range l.started {
		if i >= len(seen) || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

func TestCacheWarmSecondQueryIsFree(t *testing.T) {
	w := parWorld()
	cfg := DefaultConfig()
	cfg.Temperature = 0 // single deterministic round: identical prompts
	cfg.CacheCapacity = -1
	e := worldEngine(w, cfg)
	query := "SELECT name, capital FROM country"
	cold, err := e.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Usage.SimLatency != 0 || warm.Usage.TotalTokens() != 0 {
		t.Fatalf("warm query must be free: %+v", warm.Usage)
	}
	if warm.Usage.CachedCalls != warm.Usage.Calls || warm.Usage.Calls == 0 {
		t.Fatalf("warm calls must all be cached: %+v", warm.Usage)
	}
	if cold.Usage.SimLatency <= 0 {
		t.Fatalf("cold query must cost latency: %+v", cold.Usage)
	}
	if len(warm.Scans) != 1 || warm.Scans[0].CacheHits == 0 || warm.Scans[0].CacheMisses != 0 {
		t.Fatalf("warm scan cache stats: %+v", warm.Scans)
	}
	if renderRows(cold.Result.Rows) != renderRows(warm.Result.Rows) {
		t.Fatal("cache changed results")
	}
}
