package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// keyScanCase is one scan whose rows and ScanStats are pinned by digest.
type keyScanCase struct {
	name  string
	query string
	cfg   func(*Config)
	want  string // sha256 of renderScan
}

// renderScan serializes a result's rows (types included) and per-scan
// statistics byte-exactly.
func renderScan(res *QueryResult) string {
	var b strings.Builder
	for _, row := range res.Result.Rows {
		fmt.Fprintf(&b, "%#v\n", row)
	}
	for _, s := range res.Scans {
		fmt.Fprintf(&b, "%+v\n", s)
	}
	return b.String()
}

// TestKeyOnlyScanGolden pins the rows and ScanStats of scans over the
// key-only enumeration path — the local key gate, a bind join, the
// confidence filter — and of the LIST strategies, whose rows share one
// slab per completion. The digests were recorded with the schema-wide
// enumeration rows and per-row allocations this path used before; any
// drift in a row or a counter changes them.
func TestKeyOnlyScanGolden(t *testing.T) {
	kta := func(batch int) func(*Config) {
		return func(c *Config) {
			c.Strategy = StrategyKeyThenAttr
			c.BatchSize = batch
		}
	}
	cases := []keyScanCase{
		{"gate B3", "SELECT name, capital, population FROM country WHERE name LIKE 'K%'", kta(3), "07389ff01ea03098c8092377591994a5aec9dc043ba9303634f66e0f2044ab32"},
		{"gate B1", "SELECT name, capital, population FROM country WHERE name LIKE 'K%'", kta(1), "e21d475751479b7091666bc3c4428a840d3b94777fd76d0f73dc4de1c674c35f"},
		{"gate mixed", "SELECT name, capital FROM country WHERE name LIKE 'K%' AND population > 20", kta(4), "fffcb25a7099efde0ca61ef1c4d14a9a063f357a2cf4af76111ed3afe7f9b203"},
		{"bind join", "SELECT m.title, c.capital FROM movie m JOIN country c ON m.country = c.name", func(c *Config) {
			kta(3)(c)
			c.BindJoin = true
		}, "a3e99d2645c36e867c604f3fb49bd3c223c50d498f5ed573144ec1a19cb47fc3"},
		{"bind IN", "SELECT title FROM movie WHERE country IN (SELECT name FROM country)", func(c *Config) {
			kta(2)(c)
			c.BindJoin = true
		}, "43c9253741efece2e1e0d612c04272daaba532eed725a918af0ffba69084b3e7"},
		{"min confidence", "SELECT name, continent FROM country", func(c *Config) {
			kta(3)(c)
			c.MinConfidence = 0.5
		}, "245b15a4064fe9bc561fb4e83221eb73ba08b352bc11c8054f7d747b77007394"},
		{"full table", "SELECT name, capital, population FROM country", func(c *Config) { c.Strategy = StrategyFullTable }, "1328146d44a9b5254eac9a8b27c040d8f129c55750dcb2f06965de02e544a4dd"},
		{"paged", "SELECT name, capital FROM country", func(c *Config) { c.Strategy = StrategyPaged }, "56b299f29117502c13869a4722c8d50fe8dd5e585df412a9e6106f4611ee8eb6"},
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
