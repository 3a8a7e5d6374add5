package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
)

// Tests of the attribute phase's window rule: a key-then-attr scan that no
// LIMIT sits above attributes all its keys in one fan-out at Parallelism >
// 1, and every other scan keeps the demand-driven prefetch windows.

// cityTable is a second virtual table whose country column names a row of
// storeTable, for joins.
func cityTable() VirtualTable {
	return VirtualTable{
		Name:        "city",
		Description: "a city",
		Schema: rel.NewSchema(
			rel.Column{Name: "name", Type: rel.TypeText, Key: true, Desc: "name"},
			rel.Column{Name: "country", Type: rel.TypeText, Desc: "country"},
		),
	}
}

// twoTableScript extends countryScript(n) with n cities, City00 to City<n-1>,
// city i lying in Country<i>, so that every city joins one country.
func twoTableScript(n int) func(req llm.CompletionRequest) string {
	countries := countryScript(n)
	return func(req llm.CompletionRequest) string {
		if !strings.Contains(req.Prompt, "TABLE: city") {
			return countries(req)
		}
		if strings.Contains(req.Prompt, "TASK: KEYS") {
			var b strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "City%02d\n", i)
			}
			return b.String()
		}
		country := func(city string) string { return "Country" + strings.TrimPrefix(city, "City") }
		if !strings.Contains(req.Prompt, "TASK: ATTRS") {
			return country(entityLine(req.Prompt))
		}
		var b strings.Builder
		for _, k := range strings.Split(entityLine(req.Prompt), " | ") {
			fmt.Fprintf(&b, "%s | %s\n", k, country(k))
		}
		return b.String()
	}
}

// scanSummary renders a result's call count and each scan's attribute
// spend.
func scanSummary(res *QueryResult) string {
	s := fmt.Sprintf("rows=%d calls=%d", len(res.Result.Rows), res.Usage.Calls)
	for _, sc := range res.Scans {
		s += fmt.Sprintf(" %s:attributed=%d,prompts=%d", sc.Table, sc.KeysAttributed, sc.Prompts)
	}
	return s
}

// attributed sums KeysAttributed over a result's scans.
func attributed(res *QueryResult) int {
	n := 0
	for _, sc := range res.Scans {
		n += sc.KeysAttributed
	}
	return n
}

// TestLimitAboveUnpushableOperatorsKeepsWindows runs LIMITs that no limit
// hint reaches — one over a hash join, one over a filter on a derived
// table — at Parallelism 4. Their scans stay windowed, so attribution stops
// once the LIMIT stops pulling: the pinned spend is what these statements
// cost before the window rule existed, and it is below the unlimited
// statement's.
func TestLimitAboveUnpushableOperatorsKeepsWindows(t *testing.T) {
	const keys = 30
	cases := []struct {
		name, query string
		limit       int
		want        string
	}{
		{"join", "SELECT c.name, t.name FROM country c JOIN city t ON t.country = c.name", 3,
			"rows=3 calls=17 city:attributed=30,prompts=16 country:attributed=4,prompts=1"},
		{"unpushed filter", "SELECT * FROM (SELECT name, capital, population FROM country) s WHERE s.population > 5", 2,
			"rows=2 calls=3 country:attributed=2,prompts=3"},
	}
	for _, c := range cases {
		run := func(query string) *QueryResult {
			model := &scriptModel{respond: twoTableScript(keys)}
			e := ktaEngine(model, func(cfg *Config) {
				cfg.Parallelism = 4
				cfg.BatchSize = 2
				cfg.BindJoin = false
			})
			e.RegisterTable(cityTable())
			res, err := e.Query(query)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return res
		}
		limited, full := run(fmt.Sprintf("%s LIMIT %d", c.query, c.limit)), run(c.query)
		if got := scanSummary(limited); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
		if attributed(limited) >= attributed(full) {
			t.Errorf("%s: the LIMIT did not stop attribution: %s vs unlimited %s", c.name, scanSummary(limited), scanSummary(full))
		}
	}
}

// TestNoLimitAboveMatchesMaterializedScan compares statements no LIMIT sits
// above, whose scans attribute in one fan-out at Parallelism > 1, with the
// fully materializing scan of LimitPushdown=false: rows, every ScanStats
// field and the Usage must be identical.
func TestNoLimitAboveMatchesMaterializedScan(t *testing.T) {
	w := parWorld()
	queries := []string{
		"SELECT name, capital, population FROM country",
		"SELECT name, capital FROM country WHERE name LIKE 'K%' AND population > 20",
		"SELECT m.title, c.capital FROM movie m JOIN country c ON m.country = c.name",
	}
	for _, p := range []int{2, 8} {
		for _, batch := range []int{1, 3} {
			for _, q := range queries {
				run := func(push bool) *QueryResult {
					cfg := DefaultConfig()
					cfg.Strategy = StrategyKeyThenAttr
					cfg.Votes = 2
					cfg.MaxRounds = 2
					cfg.Temperature = 0.7
					cfg.Parallelism = p
					cfg.BatchSize = batch
					cfg.LimitPushdown = push
					res, err := worldEngine(w, cfg).Query(q)
					if err != nil {
						t.Fatalf("P=%d B=%d %s: %v", p, batch, q, err)
					}
					return res
				}
				marked, materialized := run(true), run(false)
				if got, want := renderRows(marked.Result.Rows), renderRows(materialized.Result.Rows); got != want {
					t.Fatalf("P=%d B=%d %s: rows differ:\n%s\nvs\n%s", p, batch, q, got, want)
				}
				if !reflect.DeepEqual(marked.Scans, materialized.Scans) {
					t.Fatalf("P=%d B=%d %s: scan stats differ:\n%+v\nvs\n%+v", p, batch, q, marked.Scans, materialized.Scans)
				}
				if marked.Usage != materialized.Usage {
					t.Fatalf("P=%d B=%d %s: usage differs:\n%+v\nvs\n%+v", p, batch, q, marked.Usage, materialized.Usage)
				}
			}
		}
	}
}

// TestNoLimitAboveAttributesInOneFanOut opens scans directly and counts the
// calls made by the time the first row arrives: a scan with NoLimitAbove at
// Parallelism 2 has attributed every key by then, while the zero-valued
// request, a limit hint and Parallelism 1 each keep the first window only.
func TestNoLimitAboveAttributesInOneFanOut(t *testing.T) {
	const keys, votes = 20, 2
	all := 1 + keys*2*votes // one KEYS round at temperature 0, two attribute columns
	cases := []struct {
		name        string
		parallelism int
		req         exec.ScanRequest
		oneFanOut   bool
	}{
		{"marked", 2, exec.ScanRequest{NoLimitAbove: true}, true},
		{"unmarked", 2, exec.ScanRequest{}, false},
		{"marked with a limit hint", 2, exec.ScanRequest{NoLimitAbove: true, Limit: 3}, false},
		{"marked at parallelism 1", 1, exec.ScanRequest{NoLimitAbove: true}, false},
	}
	for _, c := range cases {
		model := &scriptModel{respond: countryScript(keys)}
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Temperature = 0
		cfg.Votes = votes
		cfg.Parallelism = c.parallelism
		s := NewLLMStore(model, cfg)
		s.Register(storeTable())
		req := c.req
		req.Table, req.Schema = "country", storeTable().Schema
		it, err := s.Scan(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatalf("%s: first row: ok=%v err=%v", c.name, ok, err)
		}
		if got := model.callCount(); (got == all) != c.oneFanOut {
			t.Errorf("%s: %d calls by the first row, of %d in all; one fan-out: %v", c.name, got, all, c.oneFanOut)
		}
		rows, err := exec.Drain(it)
		if err != nil || len(rows) != keys-1 || model.callCount() != all {
			t.Fatalf("%s: drained %d more rows with %d calls, err %v", c.name, len(rows), model.callCount(), err)
		}
	}
}

// TestNoLimitAboveSerialKeepsCallOrder drains a batched scan whose ATTRS
// answers always miss one key, so every window adds single-key fallback
// calls after its batched ones. At Parallelism 1 the marked scan must
// issue its calls in the windowed order of the unmarked one; the single
// fan-out of LimitPushdown=false orders them differently, so the check
// can tell the two apart.
func TestNoLimitAboveSerialKeepsCallOrder(t *testing.T) {
	countries := countryScript(12)
	respond := func(req llm.CompletionRequest) string {
		text := countries(req)
		if strings.Contains(req.Prompt, "TASK: ATTRS") {
			_, text, _ = strings.Cut(text, "\n") // the group's first key goes missing
		}
		return text
	}
	order := func(mark, push bool) string {
		model := &scriptModel{respond: respond}
		cfg := DefaultConfig()
		cfg.Strategy = StrategyKeyThenAttr
		cfg.Temperature = 0
		cfg.Votes = 2
		cfg.BatchSize = 3
		cfg.Parallelism = 1
		cfg.LimitPushdown = push
		s := NewLLMStore(model, cfg)
		s.Register(storeTable())
		it, err := s.Scan(exec.ScanRequest{Table: "country", Schema: storeTable().Schema, NoLimitAbove: mark})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Drain(it); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, req := range model.calls {
			fmt.Fprintf(&b, "%d %q\n", req.Seed, req.Prompt)
		}
		return b.String()
	}
	windowed := order(false, true)
	if got := order(true, true); got != windowed {
		t.Fatalf("the marked scan at Parallelism 1 changed the call order:\n%s\nwant\n%s", got, windowed)
	}
	if order(true, false) == windowed {
		t.Fatal("one fan-out issued the windowed call order: the check cannot tell them apart")
	}
}
