package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"llmsql/internal/rel"
)

// keyScanCase is one scan whose rows and ScanStats are pinned by digest.
type keyScanCase struct {
	name  string
	query string
	cfg   func(*Config)
	want  string // sha256 of renderScan
}

// renderScan serializes a result's rows and per-scan statistics
// byte-exactly. Each value renders as its type, null flag and payload, so
// the digest pins what a value holds, not how rel.Value lays it out.
func renderScan(res *QueryResult) string {
	var b strings.Builder
	for _, row := range res.Result.Rows {
		for _, v := range row {
			renderValue(&b, v)
		}
		b.WriteByte('\n')
	}
	for _, s := range res.Scans {
		fmt.Fprintf(&b, "%+v\n", s)
	}
	return b.String()
}

// renderValue writes one value as "type/null/payload;". The payload is
// the accessor of the value's type: float bits exactly, text quoted.
func renderValue(b *strings.Builder, v rel.Value) {
	fmt.Fprintf(b, "%v/%t/", v.Type(), v.IsNull())
	if !v.IsNull() {
		switch v.Type() {
		case rel.TypeInt:
			fmt.Fprintf(b, "%d", v.AsInt())
		case rel.TypeFloat:
			fmt.Fprintf(b, "%#x", math.Float64bits(v.AsFloat()))
		case rel.TypeText:
			fmt.Fprintf(b, "%q", v.AsText())
		case rel.TypeBool:
			fmt.Fprintf(b, "%t", v.AsBool())
		}
	}
	b.WriteByte(';')
}

// TestKeyOnlyScanGolden pins the rows and ScanStats of scans over the
// key-only enumeration path — the local key gate, a bind join, the
// confidence filter — and of the LIST strategies, whose rows share one
// slab per completion. The scans were first pinned with the schema-wide
// enumeration rows and per-row allocations this path used before; the
// digests of the layout-free rendering were recorded before rel.Value's
// fields were reordered. Any drift in a row or a counter changes them.
func TestKeyOnlyScanGolden(t *testing.T) {
	kta := func(batch int) func(*Config) {
		return func(c *Config) {
			c.Strategy = StrategyKeyThenAttr
			c.BatchSize = batch
		}
	}
	cases := []keyScanCase{
		{"gate B3", "SELECT name, capital, population FROM country WHERE name LIKE 'K%'", kta(3), "4f3812e478c047f79968135b31671b3bdabadb2ce4ba4032351b16a51019079c"},
		{"gate B1", "SELECT name, capital, population FROM country WHERE name LIKE 'K%'", kta(1), "46e05625447885d44ab148c923c3c5a8718aefab32672f38c1538eae70f1f515"},
		{"gate mixed", "SELECT name, capital FROM country WHERE name LIKE 'K%' AND population > 20", kta(4), "be864eb6fb4dea87dda973e4fae5e1656cd297f6cb93b4816e9d3cae0cd655e3"},
		{"bind join", "SELECT m.title, c.capital FROM movie m JOIN country c ON m.country = c.name", func(c *Config) {
			kta(3)(c)
			c.BindJoin = true
		}, "e0e72d2969b73d2a8e2b939364a907bdcc9382b6197af2ea9da94a99606c26cc"},
		{"bind IN", "SELECT title FROM movie WHERE country IN (SELECT name FROM country)", func(c *Config) {
			kta(2)(c)
			c.BindJoin = true
		}, "bca1c80bbf4e35a6af8442bdbf5d8665ccac8c2fb3eecc804f9e5cef374a4cf1"},
		{"min confidence", "SELECT name, continent FROM country", func(c *Config) {
			kta(3)(c)
			c.MinConfidence = 0.5
		}, "5506556a07592573528c6c1eed7d672684cf74ba50549351a3230f45e74d5105"},
		{"full table", "SELECT name, capital, population FROM country", func(c *Config) { c.Strategy = StrategyFullTable }, "47f36749098025f91f4ed51b0f543b370dd112d0020c1fb9f165a62bcdf7e60c"},
		{"paged", "SELECT name, capital FROM country", func(c *Config) { c.Strategy = StrategyPaged }, "c507aecae3bb5197db55c3a68049fe956468ae51e06ae424c7a759a06e26c81c"},
	}
	w := parWorld()
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Votes = 3
		cfg.MaxRounds = 3
		cfg.Temperature = 0.7
		cfg.Parallelism = 4
		tc.cfg(&cfg)
		res, err := worldEngine(w, cfg).Query(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Result.Rows) == 0 {
			t.Fatalf("%s: vacuous case, no rows", tc.name)
		}
		got := renderScan(res)
		sum := sha256.Sum256([]byte(got))
		if d := hex.EncodeToString(sum[:]); d != tc.want {
			t.Errorf("%s: digest %s, want %s; rows and stats:\n%s", tc.name, d, tc.want, got)
		}
	}
}
