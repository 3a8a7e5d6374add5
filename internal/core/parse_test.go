package core

import (
	"math/rand"
	"strings"
	"testing"

	"llmsql/internal/rel"
)

var parseSchema = rel.NewSchema(
	rel.Column{Name: "name", Type: rel.TypeText, Key: true},
	rel.Column{Name: "capital", Type: rel.TypeText},
	rel.Column{Name: "population", Type: rel.TypeInt},
)

func allCols() []int { return []int{0, 1, 2} }

func TestParseCleanRows(t *testing.T) {
	text := "France | Paris | 68\nJapan | Tokyo | 125"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, true)
	if len(rows) != 2 || stats.RowsParsed != 2 || stats.RowsDropped != 0 {
		t.Fatalf("rows=%d stats=%+v", len(rows), stats)
	}
	if rows[0][0].AsText() != "France" || rows[0][2].AsInt() != 68 {
		t.Fatalf("row0: %v", rows[0])
	}
	if stats.Repairs != 0 {
		t.Fatalf("clean input needed repairs: %+v", stats)
	}
}

func TestParseSkipsProse(t *testing.T) {
	text := "Here are the rows I know of:\nFrance | Paris | 68\n(end of list)"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, true)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if stats.RowsDropped != 2 {
		t.Fatalf("prose lines must be dropped: %+v", stats)
	}
}

func TestParseRepairsBulletsAndCommentary(t *testing.T) {
	text := "- France | Paris | 68\nRow: Japan | Tokyo | 125."
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, true)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if stats.Repairs == 0 {
		t.Fatal("repairs must be counted")
	}
	if rows[1][2].AsInt() != 125 {
		t.Fatalf("trailing period handling: %v", rows[1])
	}
}

func TestParseCommaFallback(t *testing.T) {
	text := "France, Paris, 68"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, true)
	if len(rows) != 1 || rows[0][1].AsText() != "Paris" {
		t.Fatalf("comma fallback: %v (%+v)", rows, stats)
	}
	// Strict mode rejects it.
	rows, _ = parseListCompletion(text, parseSchema, allCols(), 0, false)
	if len(rows) != 0 {
		t.Fatalf("strict mode accepted comma row: %v", rows)
	}
}

func TestParseRaggedRows(t *testing.T) {
	// Missing field -> NULL-padded; extra field -> truncated.
	text := "France | Paris\nJapan | Tokyo | 125 | extra"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, true)
	if len(rows) != 2 {
		t.Fatalf("ragged rows: %v", rows)
	}
	if !rows[0][2].IsNull() {
		t.Fatalf("missing field must be NULL: %v", rows[0])
	}
	if rows[1][2].AsInt() != 125 {
		t.Fatalf("extra field must be dropped: %v", rows[1])
	}
	if stats.Repairs < 2 {
		t.Fatalf("repairs: %+v", stats)
	}
	// Strict mode rejects both.
	rows, _ = parseListCompletion(text, parseSchema, allCols(), 0, false)
	if len(rows) != 0 {
		t.Fatalf("strict accepted ragged rows: %v", rows)
	}
}

func TestParseNumericRescue(t *testing.T) {
	text := "France | Paris | about 68 million\nJapan | Tokyo | 1,254"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, true)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0][2].AsInt() != 68 {
		t.Fatalf("unit words: %v", rows[0][2])
	}
	if rows[1][2].AsInt() != 1254 {
		t.Fatalf("thousands separators: %v", rows[1][2])
	}
	_ = stats
}

func TestParseDropsRowsWithoutKey(t *testing.T) {
	text := " | Paris | 68\nunknown | Rome | 59"
	rows, _ := parseListCompletion(text, parseSchema, allCols(), 0, true)
	// First row has empty key; second has "unknown" which ParseTyped maps
	// to NULL for text? No: "unknown" maps to NULL only for non-text; for
	// TEXT it is the literal string "unknown"... which IS the NULL marker.
	for _, r := range rows {
		if r[0].IsNull() || r[0].AsText() == "" {
			t.Fatalf("row with null key leaked: %v", r)
		}
	}
}

func TestParsePartialColumns(t *testing.T) {
	// Only columns 0 and 2 requested; column 1 must be NULL.
	text := "France | 68"
	rows, _ := parseListCompletion(text, parseSchema, []int{0, 2}, 0, true)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if !rows[0][1].IsNull() || rows[0][2].AsInt() != 68 {
		t.Fatalf("partial columns: %v", rows[0])
	}
}

func TestParseKeysOnly(t *testing.T) {
	text := "France\nJapan\nHere are more:\nBrazil."
	rows, _ := parseListCompletion(text, parseSchema, []int{0}, 0, true)
	if len(rows) != 3 {
		t.Fatalf("keys: %v", rows)
	}
	if rows[2][0].AsText() != "Brazil" {
		t.Fatalf("trailing period on key: %v", rows[2])
	}
}

func TestParseTruncatedLastLine(t *testing.T) {
	// Mid-row truncation: last line misses the numeric tail.
	text := "France | Paris | 68\nJapan | Tok"
	rows, _ := parseListCompletion(text, parseSchema, allCols(), 0, true)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if !rows[1][2].IsNull() {
		t.Fatalf("truncated row numeric must be NULL: %v", rows[1])
	}
}

func TestExtractNumber(t *testing.T) {
	cases := map[string]string{
		"about 68 million":      "68",
		"≈1,408 (2021)":         "1,408",
		"-12 degrees":           "-12",
		"value: 3.5 approx":     "3.5",
		"no digits here at all": "",
	}
	for in, want := range cases {
		got, ok := extractNumber(in)
		if want == "" {
			if ok {
				t.Errorf("extractNumber(%q) = %q, want none", in, got)
			}
			continue
		}
		if !ok || got != want {
			t.Errorf("extractNumber(%q) = %q,%v want %q", in, got, ok, want)
		}
	}
}

func TestParseAttrCompletion(t *testing.T) {
	cases := []struct {
		text string
		typ  rel.DataType
		want string
		ok   bool
	}{
		{"Paris", rel.TypeText, "Paris", true},
		{"Paris.", rel.TypeText, "Paris", true},
		{"The capital of France is Paris.", rel.TypeText, "Paris", true},
		{"capital: Paris", rel.TypeText, "Paris", true},
		{"I'm not sure.", rel.TypeText, "", false},
		{"68", rel.TypeInt, "68", true},
		{"The population of France is 68.", rel.TypeInt, "68", true},
		{"about 68 million", rel.TypeInt, "68", true},
		{"population: 1,408", rel.TypeInt, "1408", true},
		{"", rel.TypeText, "", false},
	}
	for _, c := range cases {
		v, ok := parseAttrCompletion(c.text, c.typ, true)
		if ok != c.ok {
			t.Errorf("parseAttr(%q): ok=%v want %v", c.text, ok, c.ok)
			continue
		}
		if ok && v.String() != c.want {
			t.Errorf("parseAttr(%q) = %q, want %q", c.text, v.String(), c.want)
		}
	}
}

func TestParseAttrMultiline(t *testing.T) {
	v, ok := parseAttrCompletion("Paris\nIt is a lovely city.", rel.TypeText, true)
	if !ok || v.AsText() != "Paris" {
		t.Fatalf("multiline attr: %v %v", v, ok)
	}
}

func TestParseNormalizesKeyWhitespace(t *testing.T) {
	// Interior whitespace runs in the entity key are collapsed at parse
	// time, so the emitted row, dedup identity, ATTR prompts and cache all
	// agree on one spelling (regression: variants used to flow through).
	text := "United  Kingdom | London | 67\nNew\t York | Albany | 20"
	rows, stats := parseListCompletion(text, parseSchema, allCols(), 0, true)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if got := rows[0][0].AsText(); got != "United Kingdom" {
		t.Fatalf("key not normalized: %q", got)
	}
	if got := rows[1][0].AsText(); got != "New York" {
		t.Fatalf("key not normalized: %q", got)
	}
	// Non-key fields keep their parsed spelling.
	if rows[0][1].AsText() != "London" {
		t.Fatalf("capital: %v", rows[0][1])
	}
	// Canonicalization is not a repair: the strict-parser ablation must
	// stay repair-free on well-formed lines.
	if stats.Repairs != 0 {
		t.Fatalf("normalization must not count as a repair: %+v", stats)
	}
	strictRows, strictStats := parseListCompletion(text, parseSchema, allCols(), 0, false)
	if len(strictRows) != 2 || strictStats.Repairs != 0 {
		t.Fatalf("strict parse: rows=%d stats=%+v", len(strictRows), strictStats)
	}
	if got := strictRows[0][0].AsText(); got != "United Kingdom" {
		t.Fatalf("strict parser must canonicalize keys too: %q", got)
	}
}

func TestParseBatchMatchesWhitespaceVariantKeys(t *testing.T) {
	// A batched ATTRS answer echoing a key with different interior spacing
	// must still be attributed to that key, not dropped into fallback.
	vals, ok, found := parseAttrBatchCompletion(
		"United  Kingdom | London\nFrance | Paris",
		[]string{"United Kingdom", "France"}, rel.TypeText, true)
	if !found[0] || !ok[0] || vals[0].AsText() != "London" {
		t.Fatalf("whitespace-variant echo not matched: found=%v ok=%v vals=%v", found, ok, vals)
	}
	if !found[1] || vals[1].AsText() != "Paris" {
		t.Fatalf("clean echo broken: %v", vals)
	}
}

// TestParseAttrNonASCIIIsOffset covers a line whose lowered copy is longer
// than the line itself (each invalid byte lowers to a 3-byte U+FFFD): the
// " is " offset found in the lowered copy lies past the end of the line,
// and slicing the line there must not panic.
func TestParseAttrNonASCIIIsOffset(t *testing.T) {
	v, ok := parseAttrCompletion("\xff\xff\xff\xff is x", rel.TypeText, true)
	if !ok || v.AsText() != "\xff\xff\xff\xff is x" {
		t.Fatalf("got %#v, %v; want the bare line as text", v, ok)
	}
}

// TestFoldMatchesToLower checks the allocation-free case folds against
// strings.ToLower on strings whose lowering is unusual: the Kelvin sign
// (lowers to ASCII 'k'), dotted capital I and capital sharp s (change byte
// length), the long s (unchanged), invalid bytes (become U+FFFD) and
// random bytes.
func TestFoldMatchesToLower(t *testing.T) {
	inputs := []string{"", "France", "FRANCE", "k", "\u212a", "\u212aenya", "Kenya", "\u0130stanbul", "i\u0307stanbul",
		"\u1e9e", "\u00df", "\u017f", "s", "\xff", "\ufffd", "\xffabc", "Côte d'Ivoire", "CÔTE D'IVOIRE"}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		b := make([]byte, rng.Intn(6))
		rng.Read(b)
		inputs = append(inputs, string(b))
	}
	for _, a := range inputs {
		if got := string(appendLower(nil, a)); got != strings.ToLower(a) {
			t.Fatalf("appendLower(%q) = %q, strings.ToLower = %q", a, got, strings.ToLower(a))
		}
		for _, b := range inputs {
			if got, want := equalLower(a, b), strings.ToLower(a) == strings.ToLower(b); got != want {
				t.Fatalf("equalLower(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}
