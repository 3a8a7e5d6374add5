package plan

import (
	"strconv"
	"strings"
	"testing"

	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

// TestBindSubstitutesEveryNodeKind binds a plan with placeholders in every
// expression-holding node kind: the bound copy carries literals, the cached
// original keeps its placeholders, and expression-free subtrees are shared.
func TestBindSubstitutesEveryNodeKind(t *testing.T) {
	cases := []struct {
		query string
		args  []rel.Value
		want  []string // literals the bound plan must render
	}{
		{
			query: "SELECT DISTINCT c.name, c.population + $1 FROM country c " +
				"JOIN movie m ON m.country = c.name AND m.year > $2 " +
				"WHERE c.population > $3 ORDER BY c.name LIMIT 5",
			args: []rel.Value{rel.Int(7), rel.Int(1999), rel.Int(50)},
			want: []string{"7", "1999", "50"},
		},
		{
			query: "SELECT continent, SUM(population * $1) FROM country " +
				"WHERE capital <> $2 GROUP BY continent HAVING COUNT(*) > $3",
			args: []rel.Value{rel.Int(3), rel.Text("Oslo"), rel.Int(2)},
			want: []string{"3", "'Oslo'", "2"},
		},
		{
			query: "SELECT name FROM country WHERE population BETWEEN $1 AND $2 ORDER BY name",
			args:  []rel.Value{rel.Int(10), rel.Int(20)},
			want:  []string{"10", "20"},
		},
	}
	for _, tc := range cases {
		n := mustPlan(t, tc.query)
		before := Explain(n)
		if !HasParams(n) {
			t.Fatalf("%q: HasParams = false on a parameterized plan", tc.query)
		}
		bound, err := Bind(n, sql.NewPositional(tc.args))
		if err != nil {
			t.Fatalf("%q: bind: %v", tc.query, err)
		}
		if HasParams(bound) {
			t.Fatalf("%q: bound plan still holds placeholders:\n%s", tc.query, Explain(bound))
		}
		out := Explain(bound)
		for _, lit := range tc.want {
			if !strings.Contains(out, lit) {
				t.Errorf("%q: bound plan missing literal %s:\n%s", tc.query, lit, out)
			}
		}
		if Explain(n) != before || !HasParams(n) {
			t.Fatalf("%q: Bind mutated the original plan", tc.query)
		}
		if bound.Schema().Len() != n.Schema().Len() {
			t.Fatalf("%q: bound schema %v, want %v", tc.query, bound.Schema(), n.Schema())
		}
	}
}

// TestBindFastPathAndSharing: a plan without placeholders comes back
// unchanged, and a bound plan reuses the subtrees binding did not touch.
func TestBindFastPathAndSharing(t *testing.T) {
	n := mustPlan(t, "SELECT name FROM country ORDER BY name LIMIT 3")
	if HasParams(n) || HasParams(nil) {
		t.Fatal("HasParams true on a plan without placeholders")
	}
	bound, err := Bind(n, sql.NewPositional(nil))
	if err != nil || bound != n {
		t.Fatalf("fast path: got %p (err %v), want the original %p", bound, err, n)
	}

	// Only the movie side holds a placeholder: the country scan is shared.
	j := mustPlan(t, "SELECT c.name, m.title FROM country c JOIN movie m "+
		"ON m.country = c.name WHERE m.year > :y")
	bj, err := Bind(j, sql.NewNamed(map[string]rel.Value{"Y": rel.Int(2000)}))
	if err != nil {
		t.Fatal(err)
	}
	if findScan(bj, "country") != findScan(j, "country") {
		t.Fatal("expression-free scan was copied instead of shared")
	}
	if findScan(bj, "movie") == findScan(j, "movie") {
		t.Fatal("parameterized scan was shared instead of copied")
	}
}

// TestBindMissingArgument: an unbound placeholder is an error, wherever it
// sits in the plan.
func TestBindMissingArgument(t *testing.T) {
	for _, q := range []string{
		"SELECT name FROM country WHERE population > $1",
		"SELECT name, population * $1 FROM country",
		"SELECT continent, SUM(population + $1) FROM country GROUP BY continent",
		"SELECT c.name FROM country c JOIN movie m ON m.country = c.name AND m.year > $1",
	} {
		if _, err := Bind(mustPlan(t, q), sql.NewPositional(nil)); err == nil {
			t.Errorf("%q: binding without arguments succeeded", q)
		}
	}
}

// TestBindFollowsBindScan: binding a bind-join plan remaps the join's
// BindScan pointer onto the copied scan, so the executor binds keys into
// the scan that actually runs.
func TestBindFollowsBindScan(t *testing.T) {
	cat := testJoinCatalog()
	n := planJoinQuery(t, cat,
		"SELECT s.val, b.val FROM small s JOIN big b ON s.ref = b.name WHERE b.val > $1", DefaultOptions())
	j := findJoin(n)
	if j == nil || j.Strategy != JoinBind || j.BindScan == nil {
		t.Fatalf("bind join not planned:\n%s", Explain(n))
	}
	bound, err := Bind(n, sql.NewPositional([]rel.Value{rel.Int(3)}))
	if err != nil {
		t.Fatal(err)
	}
	bj := findJoin(bound)
	big := findScan(bound, "big")
	if bj.BindScan != big || big == j.BindScan {
		t.Fatalf("BindScan not remapped onto the bound copy: %p, bound scan %p, original %p",
			bj.BindScan, big, j.BindScan)
	}
	if big.Decision != j.BindScan.Decision {
		t.Fatal("bound scan lost its planner annotation")
	}
}

// TestExplainWithRows: EXPLAIN ANALYZE annotates each operator's line with
// its observed row count (zero for operators that never ran).
func TestExplainWithRows(t *testing.T) {
	n := mustPlan(t, "SELECT DISTINCT name FROM country WHERE population > 5 ORDER BY name LIMIT 2")
	rows := map[Node]int64{}
	var i int64
	walk(n, func(x Node) {
		i++
		rows[x] = i * 10
	})
	delete(rows, n)
	out := ExplainWithRows(n, rows)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("want one line per operator (%d), got:\n%s", len(rows)+1, out)
	}
	if !strings.HasSuffix(lines[0], "[rows=0]") {
		t.Fatalf("root line %q: want [rows=0]", lines[0])
	}
	for j, line := range lines[1:] {
		want := "[rows=" + strconv.Itoa((j+2)*10) + "]"
		if !strings.HasSuffix(line, want) {
			t.Fatalf("line %q: want suffix %s\n%s", line, want, out)
		}
	}
}

// TestOptimizeMatchesPlan: the unoptimized plan keeps filters above scans,
// and Optimize turns it into exactly what Plan builds (no catalog
// annotations apply over a MapCatalog).
func TestOptimizeMatchesPlan(t *testing.T) {
	const q = "SELECT c.name, m.title FROM country c JOIN movie m ON m.country = c.name " +
		"WHERE c.population > 10 AND m.year > 1990"
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := PlanUnoptimized(sel, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if s := findScan(raw, "country"); s == nil || s.Filter != nil {
		t.Fatalf("unoptimized plan already pushed filters:\n%s", Explain(raw))
	}
	if got, want := Explain(Optimize(raw)), Explain(mustPlan(t, q)); got != want {
		t.Fatalf("Optimize(PlanUnoptimized) differs from Plan:\n%s\nwant:\n%s", got, want)
	}
}

// TestMultiCatalogCapabilities: the optional catalog capabilities consult
// members in order and report ok=false for tables no member prices.
func TestMultiCatalogCapabilities(t *testing.T) {
	mc := MultiCatalog{testCatalog(), testJoinCatalog()}
	if n, ok := mc.EstimateRows("big"); !ok || n != 1000 {
		t.Fatalf("EstimateRows(big) = %d, %v", n, ok)
	}
	if _, ok := mc.EstimateRows("country"); ok {
		t.Fatal("EstimateRows priced a table no member sizes")
	}
	if d, ok := mc.ScanDecision("small", nil, nil, 0); !ok || d.EstRows != 10 {
		t.Fatalf("ScanDecision(small) = %+v, %v", d, ok)
	}
	if _, ok := mc.ScanDecision("localtbl", nil, nil, 0); ok {
		t.Fatal("ScanDecision priced an unbindable table")
	}
	if c, ok := mc.BindScanCost("big", nil, nil, 4); !ok || c.Prompts != 4 {
		t.Fatalf("BindScanCost(big) = %+v, %v", c, ok)
	}
	if _, ok := mc.BindScanCost("movie", nil, nil, 4); ok {
		t.Fatal("BindScanCost priced a table no member binds")
	}
}

// TestPlanAggregateExpressionShapes rewrites aggregate outputs wrapped in
// every expression form the aggregate rewriter handles, and matches
// group-by expressions structurally (qualified or not).
func TestPlanAggregateExpressionShapes(t *testing.T) {
	for _, q := range []string{
		"SELECT continent, -SUM(population), CAST(AVG(population) AS INT) FROM country GROUP BY continent",
		"SELECT CASE WHEN COUNT(*) > 2 THEN 'many' ELSE 'few' END FROM country GROUP BY continent",
		"SELECT CASE continent WHEN 'Asia' THEN 1 ELSE 0 END, COUNT(*) FROM country GROUP BY continent",
		"SELECT continent FROM country GROUP BY continent HAVING MAX(population) BETWEEN 1 AND 100",
		"SELECT continent FROM country GROUP BY continent HAVING COUNT(*) IN (1, 2, 3)",
		"SELECT continent FROM country GROUP BY continent HAVING continent LIKE 'A%'",
		"SELECT continent FROM country GROUP BY continent HAVING MIN(capital) IS NOT NULL",
		"SELECT continent FROM country GROUP BY continent HAVING NOT (COUNT(*) = 1)",
		"SELECT UPPER(country.continent), COUNT(*) FROM country GROUP BY UPPER(continent)",
		"SELECT population + 1, COUNT(*) FROM country GROUP BY population + 1",
		"SELECT COALESCE(MAX(capital), 'none') FROM country",
	} {
		n := mustPlan(t, q)
		if findAgg(n) == nil {
			t.Fatalf("%q: no aggregate in plan:\n%s", q, Explain(n))
		}
	}
	for _, q := range []string{
		"SELECT capital, COUNT(*) FROM country GROUP BY continent",
		"SELECT continent FROM country GROUP BY continent HAVING population > 3",
		"SELECT CASE WHEN capital = 'x' THEN 1 END FROM country GROUP BY continent",
	} {
		if err := planErr(t, q); err == nil {
			t.Errorf("%q: ungrouped column accepted", q)
		}
	}
}
