package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"llmsql/internal/rel"
)

// Differential fuzz targets for the completion parsers, the engine's
// untrusted edge: every completion is model output. Each target runs the
// parser against the reference copy in parse_ref_test.go and requires
// identical rows, ParseStats, values, ok and found flags, and checks the
// parsers' own properties — no panic, a batch never attributes a value to
// a key it did not ask about, and tolerant parsing finds at least what
// strict parsing finds. Without -fuzz they run their seed corpus as
// ordinary tests (`make fuzz` and the CI fuzz-smoke job fuzz them).

// fuzzSchema has one column of every type the parsers coerce into.
var fuzzSchema = rel.NewSchema(
	rel.Column{Name: "name", Type: rel.TypeText, Key: true},
	rel.Column{Name: "capital", Type: rel.TypeText},
	rel.Column{Name: "population", Type: rel.TypeInt},
	rel.Column{Name: "area", Type: rel.TypeFloat},
	rel.Column{Name: "member", Type: rel.TypeBool},
)

// fuzzColSets are the requested-column lists a LIST/KEYS prompt can carry
// over fuzzSchema (the key is column 0, wherever it sits in the list).
var fuzzColSets = [][]int{{0}, {0, 1, 2}, {0, 2}, {0, 1, 2, 3, 4}, {2, 0}, {3, 4, 0, 1}}

var fuzzTypes = []rel.DataType{rel.TypeText, rel.TypeInt, rel.TypeFloat, rel.TypeBool}

// edgeKeys are entity keys whose case folding or whitespace is unusual:
// non-ASCII letters, a no-break space and a tab inside a key, the Kelvin
// sign (which strings.ToLower maps to ASCII 'k'), the long s (which it
// does not map to 's') and keys that differ only in case.
var edgeKeys = []string{
	"Côte d'Ivoire",
	"Côte\u00a0d'Ivoire",
	"New\tYork",
	"\u212aenya",
	"Kenya",
	"Ru\u017fsia",
	"Russia",
	"France",
	"FRANCE",
	"İstanbul",
}

// parseSeeds are the completion texts of parse_test.go and batch_test.go
// plus lines built from edgeKeys.
func parseSeeds() []string {
	seeds := []string{
		"France | Paris | 68\nJapan | Tokyo | 125",
		"Here are the rows I know of:\nFrance | Paris | 68\n(end of list)",
		"- France | Paris | 68\nRow: Japan | Tokyo | 125.",
		"France, Paris, 68",
		"France | Paris\nJapan | Tokyo | 125 | extra",
		"France | Paris | about 68 million\nJapan | Tokyo | 1,254",
		" | Paris | 68\nunknown | Rome | 59",
		"France | 68",
		"France\nJapan\nHere are more:\nBrazil.",
		"France | Paris | 68\nJapan | Tok",
		"United  Kingdom | London | 67\nNew\t York | Albany | 20",
		"United  Kingdom | London\nFrance | Paris",
		"Paris\nIt is a lovely city.",
		"The capital of France is Paris.",
		"capital: Paris",
		"I'm not sure.",
		"The population of France is 68.",
		"population: 1,408",
		"France: Paris\n* Japan | Tokyo\nI DON'T KNOW",
		"\xff\xff\xff\xff is x",
		"İİİİ is 5",
		"",
	}
	var b strings.Builder
	for i, k := range edgeKeys {
		fmt.Fprintf(&b, "%s | v%d | %d\n", k, i, i)
	}
	seeds = append(seeds, b.String(), strings.ToUpper(b.String()), strings.ToLower(b.String()))
	return seeds
}

// refOutcome runs fn and reports whether it panicked: the reference
// parsers are the code as it was, and an input that made them panic has
// no reference answer to compare with.
func refOutcome(fn func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	fn()
	return false
}

// decorated reports whether some line of text is one the tolerant list
// parser rewrites before splitting (a bullet or "Row:" prefix, a trailing
// period): there strict and tolerant parsing read different fields, so
// "tolerant finds at least what strict finds" is not defined line by line.
func decorated(text string) bool {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		for _, p := range []string{"- ", "* ", "Row: ", "row: "} {
			if strings.HasPrefix(line, p) {
				return true
			}
		}
		if strings.HasSuffix(line, ".") {
			return true
		}
	}
	return false
}

// isSubsequence reports whether every element of sub appears in seq in
// order.
func isSubsequence(sub, seq []string) bool {
	j := 0
	for _, s := range seq {
		if j < len(sub) && sub[j] == s {
			j++
		}
	}
	return j == len(sub)
}

func rowStrings(rows []rel.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	return out
}

func FuzzParseListCompletion(f *testing.F) {
	for i, s := range parseSeeds() {
		f.Add(s, uint8(i), true)
		f.Add(s, uint8(i), false)
	}
	f.Fuzz(func(t *testing.T, text string, colSet uint8, tolerant bool) {
		cols := fuzzColSets[int(colSet)%len(fuzzColSets)]
		rows, stats := parseListCompletion(text, fuzzSchema, cols, 0, tolerant)
		var refRows []rel.Row
		var refStats ParseStats
		if !refOutcome(func() { refRows, refStats = refParseListCompletion(text, fuzzSchema, cols, 0, tolerant) }) {
			if got, want := fmt.Sprintf("%#v", rows), fmt.Sprintf("%#v", refRows); got != want {
				t.Fatalf("rows differ from the reference:\n got %s\nwant %s", got, want)
			}
			if stats != refStats {
				t.Fatalf("stats %+v, reference %+v", stats, refStats)
			}
		}
		if tolerant && !decorated(text) {
			strict, _ := parseListCompletion(text, fuzzSchema, cols, 0, false)
			if !isSubsequence(rowStrings(strict), rowStrings(rows)) {
				t.Fatalf("strict rows %v are not among the tolerant rows %v", strict, rows)
			}
		}
	})
}

func FuzzParseAttrBatchCompletion(f *testing.F) {
	keySets := []string{
		"France\nJapan",
		"United Kingdom\nFrance",
		strings.Join(edgeKeys, "\n"),
		"France\nFRANCE\nfrance",
		"Kenya\n\u212aenya",
		"Russia\nRu\u017fsia",
		"Côte d'Ivoire\nCôte\u00a0d'Ivoire",
	}
	for i, s := range parseSeeds() {
		f.Add(s, keySets[i%len(keySets)], uint8(i), true)
		f.Add(s, keySets[i%len(keySets)], uint8(i), false)
	}
	f.Fuzz(func(t *testing.T, text, keyList string, typ uint8, tolerant bool) {
		keys := strings.Split(keyList, "\n")
		if len(keys) > 16 {
			keys = keys[:16]
		}
		ty := fuzzTypes[int(typ)%len(fuzzTypes)]
		vals, ok, found := parseAttrBatchCompletion(text, keys, ty, tolerant)
		var refVals []rel.Value
		var refOK, refFound []bool
		if !refOutcome(func() { refVals, refOK, refFound = refParseAttrBatchCompletion(text, keys, ty, tolerant) }) {
			got := fmt.Sprintf("%#v %v %v", vals, ok, found)
			want := fmt.Sprintf("%#v %v %v", refVals, refOK, refFound)
			if got != want {
				t.Fatalf("batch parse differs from the reference:\n got %s\nwant %s", got, want)
			}
		}
		if len(vals) != len(keys) || len(ok) != len(keys) || len(found) != len(keys) {
			t.Fatalf("results not parallel to %d keys: %d %d %d", len(keys), len(vals), len(ok), len(found))
		}
		folded := strings.ToLower(normalizeKeyText(text))
		for i, k := range keys {
			if !found[i] {
				if ok[i] || !vals[i].IsNull() {
					t.Fatalf("key %q not found but given %v (ok=%v)", k, vals[i], ok[i])
				}
				continue
			}
			if !strings.Contains(folded, strings.ToLower(normalizeKeyText(k))) {
				t.Fatalf("key %q, which the completion never names, was given %v", k, vals[i])
			}
		}
		if tolerant && !decorated(text) {
			_, _, strictFound := parseAttrBatchCompletion(text, keys, ty, false)
			for i := range keys {
				if strictFound[i] && !found[i] {
					t.Fatalf("strict parsing found key %q, tolerant parsing did not", keys[i])
				}
			}
		}
	})
}

func FuzzParseAttrCompletion(f *testing.F) {
	for i, s := range parseSeeds() {
		f.Add(s, uint8(i), true)
		f.Add(s, uint8(i), false)
	}
	f.Fuzz(func(t *testing.T, text string, typ uint8, tolerant bool) {
		ty := fuzzTypes[int(typ)%len(fuzzTypes)]
		v, ok := parseAttrCompletion(text, ty, tolerant)
		var refV rel.Value
		var refOK bool
		if !refOutcome(func() { refV, refOK = refParseAttrCompletion(text, ty, tolerant) }) {
			if got, want := fmt.Sprintf("%#v %v", v, ok), fmt.Sprintf("%#v %v", refV, refOK); got != want {
				t.Fatalf("attr parse differs from the reference:\n got %s\nwant %s", got, want)
			}
		}
		if !ok && !v.IsNull() {
			t.Fatalf("a value that did not parse must be NULL, got %#v", v)
		}
		if tolerant {
			if _, strictOK := parseAttrCompletion(text, ty, false); strictOK && !ok {
				t.Fatalf("strict parsing accepted %q, tolerant parsing did not", text)
			}
		}
	})
}

// FuzzLowerKernels checks the case-folding kernels the parsers search and
// compare with against strings.ToLower on arbitrary bytes: appendLower
// must produce strings.ToLower's bytes, equalLower must agree with == on
// the lowered strings, and a marker search must agree with bytes.Contains
// (bytes.LastIndex for " is ") on the lowered line — for the prose and
// refusal sets and for b itself as a marker when it is lower-case ASCII of
// two bytes or more.
// Their ASCII fast paths must not change an answer on any input.
func FuzzLowerKernels(f *testing.F) {
	seeds := []string{
		"İ", "İstanbul", "K", "Kenya", "UNKNOWN", "HeRe ArE tHe RoWs:", "Kenya",
		"\xff", "\xc3", "a\xffb", "\xe2\x84", "I DON'T KNOW", "i'm not sure", "unknown",
		"The capital of İstanbul IS Paris", "Ruſsia", "here are", " is ", "",
	}
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)])
		f.Add(a, strings.ToUpper(a))
	}
	for _, s := range parseSeeds() {
		f.Add(s, "here are")
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		la, lb := strings.ToLower(a), strings.ToLower(b)
		if got := string(appendLower([]byte("x"), a)); got != "x"+la {
			t.Fatalf("appendLower(%q) = %q, strings.ToLower = %q", a, got[1:], la)
		}
		if got, want := equalLower(a, b), la == lb; got != want {
			t.Fatalf("equalLower(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := lastIndexIs(a), strings.LastIndex(la, " is "); got != want {
			t.Fatalf("lastIndexIs(%q) = %d, want %d", a, got, want)
		}
		sets := []*markerSet{proseMarkers, refusalMarkers}
		if len(b) >= 2 && len(b) <= 32 && b == lb && asciiPrefix(b) == len(b) {
			sets = append(sets, newMarkerSet(b))
		}
		for _, m := range sets {
			want := false
			for _, mk := range m.markers {
				want = want || bytes.Contains([]byte(la), mk)
			}
			if got := m.in(a); got != want {
				t.Fatalf("markers %q in %q = %v, want %v", m.markers, a, got, want)
			}
		}
	})
}
