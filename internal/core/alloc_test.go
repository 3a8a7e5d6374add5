package core

import (
	"testing"

	"llmsql/internal/rel"
)

// Allocation pins for the per-prompt path: every scan prompt is built,
// answered and parsed here, so a stray copy is paid once per prompt.

var batchKeys = []string{"France", "Japan", "United Kingdom", "Côte d'Ivoire"}

const batchCompletion = "France | Paris\nJapan | Tokyo\nUnited Kingdom | London\nCôte d'Ivoire | Yamoussoukro"

func TestNormalizeKeyTextCanonicalAllocs(t *testing.T) {
	for _, k := range []string{"France", "United Kingdom", "Bosnia and Herzegovina", ""} {
		if got := testing.AllocsPerRun(100, func() { normalizeKeyText(k) }); got != 0 {
			t.Errorf("normalizeKeyText(%q) allocated %.1f times, want 0", k, got)
		}
	}
}

func TestLooksLikeProseAllocs(t *testing.T) {
	for _, line := range []string{"United Kingdom | London | 67", "Here Are The Rows", "France"} {
		if got := testing.AllocsPerRun(100, func() { looksLikeProse(line) }); got != 0 {
			t.Errorf("looksLikeProse(%q) allocated %.1f times, want 0", line, got)
		}
	}
}

// TestParseAttrBatchAllocs pins a clean 4-key batch to its three result
// slices: key matching, prose detection and value parsing add nothing.
func TestParseAttrBatchAllocs(t *testing.T) {
	vals, ok, found := parseAttrBatchCompletion(batchCompletion, batchKeys, rel.TypeText, true)
	for i := range batchKeys {
		if !found[i] || !ok[i] || vals[i].IsNull() {
			t.Fatalf("key %q not parsed: %v %v %v", batchKeys[i], vals, ok, found)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		parseAttrBatchCompletion(batchCompletion, batchKeys, rel.TypeText, true)
	})
	if got != 3 {
		t.Fatalf("parseAttrBatchCompletion allocated %.1f times, want 3", got)
	}
}

// TestBuildAttrBatchPromptAllocs pins the batched prompt to the one
// pre-sized buffer of its result.
func TestBuildAttrBatchPromptAllocs(t *testing.T) {
	tab := promptTable()
	if got := testing.AllocsPerRun(100, func() { buildAttrBatchPrompt(tab, batchKeys, 1) }); got != 1 {
		t.Fatalf("buildAttrBatchPrompt allocated %.1f times, want 1", got)
	}
}

var (
	benchRows  []rel.Row
	benchValue rel.Value
	benchText  string
)

func BenchmarkParseListCompletion(b *testing.B) {
	text := "Here are the rows:\nFrance | Paris | 68\nJapan | Tokyo | 125\nUnited Kingdom | London | 67\nCôte d'Ivoire | Yamoussoukro | 28"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRows, _ = parseListCompletion(text, parseSchema, allCols(), 0, true)
	}
}

func BenchmarkParseAttrBatchCompletion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vals, _, _ := parseAttrBatchCompletion(batchCompletion, batchKeys, rel.TypeText, true)
		benchValue = vals[0]
	}
}

func BenchmarkParseAttrCompletion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchValue, _ = parseAttrCompletion("The capital of France is Paris.", rel.TypeText, true)
	}
}

func BenchmarkBuildAttrBatchPrompt(b *testing.B) {
	tab := promptTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchText = buildAttrBatchPrompt(tab, batchKeys, 1)
	}
}
