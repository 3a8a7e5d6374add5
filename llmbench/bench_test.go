package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatches checks that BENCHMARK.json declares exactly the
// workloads and metrics the program measures, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, list := range []struct {
		declared []struct{ Name, Unit string }
		names    []string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(list.declared) != len(list.names) {
			t.Errorf("BENCHMARK.json declares %d metrics, the program %d", len(list.declared), len(list.names))
			continue
		}
		for i, m := range list.declared {
			if m.Name != list.names[i] || m.Unit != units[m.Name] {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					i, m.Name, m.Unit, list.names[i], units[list.names[i]])
			}
		}
	}
}

// shortRun runs a workload briefly with one set-up and returns every
// metric it measured.
func shortRun(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	opts := newOptions(workload, 7, 0.3, trace)
	opts.setups = 1
	rep, err := runWorkload(opts, workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s: %d of %d statements failed: %v", workload, rep.failed, rep.attempted, rep.notes)
	}
	return rep
}

// TestEveryMetricReported runs each workload untraced and traced and
// checks that the final line carries every metric of the mode, by name
// and with its unit.
func TestEveryMetricReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"adhoc-cold", "lookup-hot", "serve-mixed"} {
		for _, trace := range []bool{false, true} {
			opts := newOptions(w, 3, 0.3, trace)
			opts.setups = 1
			res, lines, err := measure(opts, workloads[w])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) || !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d metrics, correct=%v, failed=%d", w, trace, len(res.Metrics), res.Correct, res.Failed)
			}
			for _, n := range want {
				m, ok := res.Metrics[n]
				if !ok || m.Unit != units[n] {
					t.Errorf("%s trace=%v: metric %s missing or unit %q", w, trace, n, m.Unit)
				}
				if !strings.Contains(strings.Join(lines, "\n"), n) {
					t.Errorf("%s trace=%v: report lines do not name %s", w, trace, n)
				}
			}
		}
	}
}

// TestCountsRepeat checks that the model-traffic counts repeat exactly
// across two runs of the same seed and the allocation count to within a
// few allocations per pass, and that lookup-hot never reaches the base
// model. Allocation counts cannot repeat exactly across processes: Go
// seeds every map's hash randomly, and how a large map's table splits,
// and so how many times it allocates, depends on the hashes.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	exact := []string{"model_calls_per_stmt", "tokens_per_stmt", "live_calls_per_stmt"}
	for _, w := range []string{"adhoc-cold", "lookup-hot"} {
		a, b := shortRun(t, w, false), shortRun(t, w, false)
		for _, n := range exact {
			if a.values[n] != b.values[n] {
				t.Errorf("%s: %s differs between runs: %v vs %v", w, n, a.values[n], b.values[n])
			}
		}
		if x, y := a.values["allocs_per_stmt"], b.values["allocs_per_stmt"]; math.Abs(x-y) > 1e-4*x {
			t.Errorf("%s: allocs_per_stmt differs between runs: %v vs %v", w, x, y)
		}
		if w == "lookup-hot" && a.values["live_calls_per_stmt"] != 0 {
			t.Errorf("lookup-hot: live_calls_per_stmt = %v, want 0", a.values["live_calls_per_stmt"])
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "adhoc-cold", "--trace", "2"},
		{"--workload", "adhoc-cold", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestTailQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 100 samples leave only one beyond p99, so the p90 is reported.
	p, v, beyond := tailQuantile(xs)
	if p != 0.9 || v != 90 || beyond != 10 {
		t.Errorf("tailQuantile = p%v %v with %d beyond, want p0.9 90 with 10", p, v, beyond)
	}
}

func TestCheckJoin(t *testing.T) {
	st := &serveState{
		visits:   [][3]any{{1, "A", 0}, {2, "Z", 0}, {3, "B", 0}, {4, "A", 0}},
		capitals: map[string]any{"A": "a", "B": nil},
	}
	row := func(id, capital any) []any { return []any{json.Number(id.(string)), capital} }
	for _, c := range []struct {
		rows   [][]any
		lo, hi int64
		ok     bool
	}{
		{nil, 0, 4, true},
		{[][]any{row("1", "a"), row("3", nil)}, 2, 3, true},
		{[][]any{row("3", nil), row("1", "a")}, 3, 4, true},
		{[][]any{row("1", "a")}, 3, 4, false},                // id 3 was acknowledged
		{[][]any{row("3", nil)}, 0, 4, false},                // id 1 skipped
		{[][]any{row("1", "b")}, 0, 4, false},                // wrong capital
		{[][]any{row("2", "a")}, 0, 4, false},                // unknown country
		{[][]any{row("1", "a"), row("4", "a")}, 0, 3, false}, // not sent yet
	} {
		if msg := st.checkJoin(c.rows, c.lo, c.hi); (msg == "") != c.ok {
			t.Errorf("checkJoin(%v, %d, %d) = %q, want ok=%v", c.rows, c.lo, c.hi, msg, c.ok)
		}
	}
}
