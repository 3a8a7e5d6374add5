// Command llmbench is the llmsql benchmark. It drives the engine only
// through its public packages (core, serve, llm, sql, exec, storage, world)
// and runs one of three workloads:
//
//	adhoc-cold   the paper's workload: every question is new, every prompt
//	             misses every memo and crosses the whole backend stack
//	lookup-hot   Zipf-skewed point and small-range lookups that fit the
//	             plan cache and the completion memo
//	serve-mixed  a reader and a writer over one serve.Server
//
// Each workload's model traffic is recorded once during set-up from the
// live simulator (llm.SynthLM); the timed phase replays it, so timed numbers
// are the engine's own cost and the simulator's CPU lands only in setup_s.
//
// Usage:
//
//	llmbench --workload adhoc-cold --seed 1 --seconds 10 --trace 0
//
// The report lines name every metric with its unit; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics of an
// untraced run; --trace 1 reports the per-layer metrics of a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name the metrics each mode prints; BENCHMARK.json
// declares the same lists.
var endToEnd = []string{
	"setup_s", "qps", "latency_p50_ms",
	"allocs_per_stmt", "alloc_kb_per_stmt", "peak_heap_mb",
	"model_calls_per_stmt", "answer_f1",
}

var perLayer = []string{
	// The tail, which on a shared machine follows the CPU time the host
	// takes away more than the program, so it carries no bound; the
	// virtual ledger and the figures that are zero on some workload by
	// design, so they cannot carry a relative one.
	"latency_p99_ms", "live_calls_per_stmt", "tokens_per_stmt", "model_wall_ms_per_stmt",
	"usd_per_kstmt", "write_p50_ms", "failed_frac",
	// llm
	"llm.fingerprint_us", "llm.retrier.pass_us", "llm.diskcache.miss_us",
	"llm.diskcache.hit_us", "llm.base.us_per_call", "llm.counting_us",
	"llm.diskcache.bytes_written_per_call", "llm.diskcache.open_ms",
	"llm.cache.hit_us", "llm.cache.miss_us", "llm.cache.hit_rate",
	"llm.cache.evictions", "llm.coalescer.us", "llm.coalescer.memo_hit_rate",
	"llm.coalescer.flight_hits",
	// core
	"core.self_ms_per_stmt", "core.parse_share", "core.prompts_per_stmt",
	"core.rows_per_prompt", "core.keys_attributed_per_row",
	"core.batch_fallbacks_per_stmt", "core.rounds_per_scan",
	"core.view.refresh_ms", "core.view.read_us",
	// sql, plan, exec, storage, serve
	"sql.parse_us", "sql.parse_allocs", "sql.normalize_us",
	"plan.plan_us", "plan.plan_allocs", "plan.cache_hit_rate",
	"exec.execute_us", "storage.insert_us",
	"serve.overhead_us", "serve.coalesced_share", "serve.admission_rejected",
	// the simulator and the tracing itself
	"synth.us_per_call", "trace.overhead_frac",
}

// units gives every metric's unit.
var units = map[string]string{
	"setup_s": "s", "qps": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
	"allocs_per_stmt": "count", "alloc_kb_per_stmt": "KiB", "peak_heap_mb": "MB",
	"model_calls_per_stmt": "count", "answer_f1": "ratio",

	"live_calls_per_stmt": "count", "tokens_per_stmt": "count",
	"model_wall_ms_per_stmt": "ms", "usd_per_kstmt": "USD", "write_p50_ms": "ms",
	"failed_frac": "ratio",

	"llm.fingerprint_us": "us", "llm.retrier.pass_us": "us", "llm.diskcache.miss_us": "us",
	"llm.diskcache.hit_us": "us", "llm.base.us_per_call": "us", "llm.counting_us": "us",
	"llm.diskcache.bytes_written_per_call": "B", "llm.diskcache.open_ms": "ms",
	"llm.cache.hit_us": "us", "llm.cache.miss_us": "us", "llm.cache.hit_rate": "ratio",
	"llm.cache.evictions": "count", "llm.coalescer.us": "us",
	"llm.coalescer.memo_hit_rate": "ratio", "llm.coalescer.flight_hits": "count",

	"core.self_ms_per_stmt": "ms", "core.parse_share": "ratio", "core.prompts_per_stmt": "count",
	"core.rows_per_prompt": "count", "core.keys_attributed_per_row": "count",
	"core.batch_fallbacks_per_stmt": "count", "core.rounds_per_scan": "count",
	"core.view.refresh_ms": "ms", "core.view.read_us": "us",

	"sql.parse_us": "us", "sql.parse_allocs": "count", "sql.normalize_us": "us",
	"plan.plan_us": "us", "plan.plan_allocs": "count", "plan.cache_hit_rate": "ratio",
	"exec.execute_us": "us", "storage.insert_us": "us",
	"serve.overhead_us": "us", "serve.coalesced_share": "ratio", "serve.admission_rejected": "count",

	"synth.us_per_call": "us", "trace.overhead_frac": "ratio",
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds the run's scratch files (disk caches, the socket); it
	// is created under the current directory and removed at the end.
	workDir string
	// setups is how many times set-up runs at least; setup_s is their
	// median.
	setups int
}

// workloads maps names to runners. A runner sets up (see setupRepeated),
// measures for opts.seconds and fills the report.
var workloads = map[string]func(opts options, rep *report) error{
	"adhoc-cold":  runAdhoc,
	"lookup-hot":  runLookup,
	"serve-mixed": runServeMixed,
}

func newOptions(workload string, seed int64, seconds float64, trace bool) options {
	return options{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		workDir:  fmt.Sprintf(".bench_work/%d-%d", os.Getpid(), time.Now().UnixNano()),
		setups:   3,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: adhoc-cold, lookup-hot or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: drives the world, the key draws and the INSERT values")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "llmbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		return 2
	}
	opts := newOptions(*workload, *seed, *seconds, *trace == 1)
	res, lines, err := measure(opts, runner)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if err != nil {
		fmt.Fprintf(stderr, "llmbench: %s: %v\n", opts.workload, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "llmbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measure runs one workload and selects the metrics of the run's mode. The
// report lines print every metric the run produced, whatever the mode.
func measure(opts options, runner func(options, *report) error) (result, []string, error) {
	rep, err := runWorkload(opts, runner)
	if err != nil {
		return result{}, nil, err
	}
	names := endToEnd
	if opts.trace {
		names = perLayer
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	for _, n := range names {
		v, ok := rep.values[n]
		if !ok {
			return result{}, nil, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	return res, rep.lines(opts), nil
}

// runWorkload runs one workload in a fresh work directory and returns
// every metric it measured.
func runWorkload(opts options, runner func(options, *report) error) (*report, error) {
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(opts.workDir)
		// The parent goes too once no other run is using it.
		os.Remove(filepath.Dir(opts.workDir))
	}()
	rep := newReport()
	return rep, runner(opts, rep)
}
