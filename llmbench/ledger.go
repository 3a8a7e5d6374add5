package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/llm"
)

// report collects one run's metrics and the notes printed beside them.
type report struct {
	values    map[string]float64
	notes     []string
	attempted int
	failed    int
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// lines renders every measured metric as "name value unit", end-to-end
// metrics first, then the notes.
func (r *report) lines(opts options) []string {
	mode := "untraced"
	if opts.trace {
		mode = "traced"
	}
	out := []string{fmt.Sprintf("# llmbench workload=%s seed=%d seconds=%g run=%s attempted=%d failed=%d",
		opts.workload, opts.seed, opts.seconds, mode, r.attempted, r.failed)}
	for _, list := range [][]string{endToEnd, perLayer} {
		for _, n := range list {
			if v, ok := r.values[n]; ok {
				out = append(out, fmt.Sprintf("%-38s %14.6g %s", n, v, units[n]))
			}
		}
	}
	for _, n := range r.notes {
		out = append(out, "# "+n)
	}
	return out
}

// ledger is the real ledger of a timed phase: per-statement wall times,
// per-pass throughput and allocations, and busy time.
type ledger struct {
	lat      []float64 // statement latencies in order, ms
	writeLat []float64 // latencies of INSERT statements, ms
	rates    []float64 // statements per second of each pass
	// allocs and bytes hold one value per pass: heap objects and bytes
	// allocated per statement.
	allocs []float64
	bytes  []float64
	busy   time.Duration
	stmts  int
	failed int
	// perStmt, set on the counting passes of a workload that runs one
	// statement at a time, asks for each statement's allocations, which
	// stmtAllocs collects in pass order.
	perStmt    bool
	stmtAllocs []memSnap
}

// stmtStart reads the allocation counters before a statement of a
// counting pass (they are read only there: reading stops the world).
func (l *ledger) stmtStart() memSnap {
	if l.perStmt {
		return readMem()
	}
	return memSnap{}
}

// countStmt records one statement's allocations on a counting pass.
func (l *ledger) countStmt(before memSnap) {
	if l.perStmt {
		after := readMem()
		l.stmtAllocs = append(l.stmtAllocs, memSnap{after.mallocs - before.mallocs, after.bytes - before.bytes})
	}
}

// leastPerStmt returns the allocations per statement of passes of n
// statements: each statement's least count over the passes, averaged.
// Within a process a statement's count varies only when a preemption makes
// a worker pool allocate one more goroutine, which only ever adds, and a
// statement runs for a few milliseconds, so its least count over a few
// passes is its own. Across processes a few allocations per pass still
// differ: every map's hash seed is random, and how a large map splits its
// tables depends on the hashes.
func (l *ledger) leastPerStmt(n int) (allocs, bytes float64) {
	for j := 0; j < n; j++ {
		least := l.stmtAllocs[j]
		for p := j + n; p < len(l.stmtAllocs); p += n {
			least.mallocs = min(least.mallocs, l.stmtAllocs[p].mallocs)
			least.bytes = min(least.bytes, l.stmtAllocs[p].bytes)
		}
		allocs += float64(least.mallocs)
		bytes += float64(least.bytes)
	}
	return allocs / float64(n), bytes / float64(n)
}

// memSnap is a point-in-time allocation counter.
type memSnap struct{ mallocs, bytes uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc}
}

// addPass records a pass of n statements that kept the program busy for
// busy, with the allocation counters read around it.
func (l *ledger) addPass(n int, busy time.Duration, before, after memSnap) {
	if n == 0 {
		return
	}
	l.stmts += n
	l.busy += busy
	l.rates = append(l.rates, float64(n)/busy.Seconds())
	l.allocs = append(l.allocs, float64(after.mallocs-before.mallocs)/float64(n))
	l.bytes = append(l.bytes, float64(after.bytes-before.bytes)/float64(n))
}

// tailBlock is the number of consecutive statements each latency_p99_ms
// block holds: enough for ten samples beyond the 99th percentile.
const tailBlock = 1000

// fill reports the end-to-end real-ledger metrics. Throughput is the
// median of the passes' rates and the tail the median of the blocks' tails,
// so a burst of interference from outside moves one pass or block, not
// the figure.
func (l *ledger) fill(rep *report) {
	rep.set("qps", median(l.rates))
	rep.note("qps is the median rate of %d passes", len(l.rates))
	blocks := max(1, len(l.lat)/tailBlock)
	size := len(l.lat) / blocks
	var tails []float64
	var p float64
	beyond := 0
	for b := 0; b < blocks; b++ {
		chunk := l.lat[b*size:]
		if b < blocks-1 {
			chunk = chunk[:size]
		}
		var v float64
		var n int
		p, v, n = tailQuantile(append([]float64(nil), chunk...))
		tails = append(tails, v)
		beyond = n
	}
	rep.set("latency_p99_ms", median(tails))
	rep.note("latency_p99_ms is the median over %d blocks of %d statements of each block's p%.4g (%d samples beyond it); %d latencies in all",
		blocks, size, p*100, beyond, len(l.lat))
	p50, _ := quantile(l.lat, 0.5)
	rep.set("latency_p50_ms", p50)
	w, _ := quantile(l.writeLat, 0.5)
	rep.set("write_p50_ms", w)
}

// tailQuantile returns the 99th percentile when at least ten samples lie
// beyond it, else the highest percentile that has ten beyond it, with that
// percentile and the number of samples beyond.
func tailQuantile(xs []float64) (p, v float64, beyond int) {
	n := len(xs)
	p = 0.99
	if n > 0 && float64(n)*(1-p) < 10 {
		p = math.Max(0, 1-10/float64(n))
	}
	v, idx := quantile(xs, p)
	return p, v, n - 1 - idx
}

// quantile returns the nearest-rank q-quantile of xs and its index in
// sorted order (0 and -1 for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return 0, -1
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i], i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// heapPeak samples the live heap in the background and keeps the maximum.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// baseModel is the bottom of every engine stack the benchmark builds. It
// forwards to the live recorder (set-up) or the trace replayer (timed
// phase) and counts what reaches it: the live side of the virtual ledger.
// Token totals are integers, so live dollars are computed once from them
// and do not depend on the order concurrent calls finished in.
type baseModel struct {
	inner  llm.Model
	calls  atomic.Int64
	prompt atomic.Int64
	compl  atomic.Int64
	spans  *spanLog
}

func newBase(inner llm.Model, spans *spanLog) *baseModel {
	return &baseModel{inner: inner, spans: spans}
}

func (b *baseModel) Name() string { return b.inner.Name() }

func (b *baseModel) Complete(req llm.CompletionRequest) (llm.CompletionResponse, error) {
	var start time.Duration
	tracing := b.spans.on()
	if tracing {
		start = b.spans.now()
	}
	resp, err := b.inner.Complete(req)
	if tracing {
		b.spans.add(start, b.spans.now())
	}
	if err == nil {
		b.calls.Add(1)
		b.prompt.Add(int64(resp.PromptTokens))
		b.compl.Add(int64(resp.CompletionTokens))
	}
	return resp, err
}

// liveUsage is a snapshot of the base model's counters.
type liveUsage struct{ calls, prompt, compl int64 }

func (b *baseModel) usage() liveUsage {
	return liveUsage{b.calls.Load(), b.prompt.Load(), b.compl.Load()}
}

func (u liveUsage) add(o liveUsage) liveUsage {
	return liveUsage{u.calls + o.calls, u.prompt + o.prompt, u.compl + o.compl}
}

func (u liveUsage) sub(o liveUsage) liveUsage {
	return liveUsage{u.calls - o.calls, u.prompt - o.prompt, u.compl - o.compl}
}

// dollars prices the live tokens under the engine's default cost model.
func (u liveUsage) dollars() float64 {
	return llm.DefaultCostModel().Dollars(int(u.prompt), int(u.compl))
}

// virtual is the virtual ledger of a timed phase: what the statements were
// billed and what reached the base model.
type virtual struct {
	billed llm.Usage
	live   liveUsage
	stmts  int
}

func (v *virtual) fill(rep *report) {
	n := float64(v.stmts)
	rep.set("model_calls_per_stmt", float64(v.billed.Calls)/n)
	rep.set("tokens_per_stmt", float64(v.billed.TotalTokens())/n)
	rep.set("model_wall_ms_per_stmt", float64(v.billed.SimWall)/float64(time.Millisecond)/n)
	rep.set("live_calls_per_stmt", float64(v.live.calls)/n)
	rep.set("usd_per_kstmt", v.live.dollars()/n*1000)
}

// spanLog keeps the base-call spans of a traced run in memory. A nil or
// switched-off log records nothing.
type spanLog struct {
	t0      time.Time
	enabled atomic.Bool
	mu      sync.Mutex
	spans   [][2]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (s *spanLog) on() bool { return s != nil && s.enabled.Load() }

func (s *spanLog) now() time.Duration { return time.Since(s.t0) }

func (s *spanLog) add(start, end time.Duration) {
	s.mu.Lock()
	s.spans = append(s.spans, [2]time.Duration{start, end})
	s.mu.Unlock()
}

// mark returns the current log length, to take the spans a statement
// caused with since.
func (s *spanLog) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// since returns the length of the union of the spans logged after mark
// that overlap [start, end], and forgets them. It suits callers that run
// one statement at a time, so every span logged meanwhile is its own.
func (s *spanLog) since(mark int, start, end time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	covered := unionWithin(s.spans[mark:], start, end)
	s.spans = s.spans[:mark]
	return covered
}

// unionWithin returns the length of the union of spans clipped to
// [start, end]. spans is reordered.
func unionWithin(spans [][2]time.Duration, start, end time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, sp := range spans {
		s, e := max(sp[0], start), min(sp[1], end)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// coreStats sums the scan statistics statements reported, for the core
// per-layer metrics.
type coreStats struct {
	stmts, scans                                  int
	prompts, rows, keysAttributed, fallbacks, rnd int
	selfMs                                        []float64
}

// addScans folds one statement's scan statistics into the core tallies.
func (c *coreStats) addScans(scans []core.ScanStats) {
	c.stmts++
	for _, s := range scans {
		if s.Materialized != "" {
			continue
		}
		c.scans++
		c.prompts += s.Prompts
		c.rows += s.RowsEmitted
		c.keysAttributed += s.KeysAttributed
		c.fallbacks += s.BatchFallbacks
		c.rnd += s.Rounds
	}
}

// add folds another tally in.
func (c *coreStats) add(o coreStats) {
	c.stmts += o.stmts
	c.scans += o.scans
	c.prompts += o.prompts
	c.rows += o.rows
	c.keysAttributed += o.keysAttributed
	c.fallbacks += o.fallbacks
	c.rnd += o.rnd
}

func (c *coreStats) fill(rep *report) {
	n := float64(max(c.stmts, 1))
	rep.set("core.prompts_per_stmt", float64(c.prompts)/n)
	rep.set("core.rows_per_prompt", ratio(c.rows, c.prompts))
	rep.set("core.keys_attributed_per_row", ratio(c.keysAttributed, c.rows))
	rep.set("core.batch_fallbacks_per_stmt", float64(c.fallbacks)/n)
	rep.set("core.rounds_per_scan", ratio(c.rnd, c.scans))
	var self float64
	for _, s := range c.selfMs {
		self += s
	}
	rep.set("core.self_ms_per_stmt", self/float64(max(len(c.selfMs), 1)))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
