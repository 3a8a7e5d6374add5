package core

import (
	"fmt"
	"strings"
	"testing"

	"llmsql/internal/llm"
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
	for _, line := range []string{"United Kingdom | London | 67", "Here Are The Rows", "France", "Côte d'Ivoire | Yamoussoukro"} {
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

// TestMergeVotesAllocs pins the vote merge to zero allocations on the
// numeric and ASCII-text cells the attribute phase merges.
func TestMergeVotesAllocs(t *testing.T) {
	v := func(val rel.Value) attrVote { return attrVote{val: val, ok: true} }
	cells := map[string][]attrVote{
		"int":   {v(rel.Int(68)), v(rel.Int(67)), v(rel.Int(68))},
		"float": {v(rel.Float(2.5)), v(rel.Int(2)), v(rel.Float(2.5)), {}},
		"ascii": {v(rel.Text("Paris")), v(rel.Text(" paris ")), v(rel.Text("Lyon"))},
	}
	for name, votes := range cells {
		if got := testing.AllocsPerRun(100, func() { benchValue = mergeVotes(votes, rel.TypeText) }); got != 0 {
			t.Errorf("mergeVotes on %s votes allocated %.1f times, want 0", name, got)
		}
	}
}

// TestParseKeysCompletionAllocs pins a KEYS completion parsed against the
// key column's own schema to a constant number of allocations — the row
// slab and the row slice — however many lines it has.
func TestParseKeysCompletionAllocs(t *testing.T) {
	keySchema := rel.Schema{Columns: parseSchema.Columns[:1]}
	var short, long strings.Builder
	short.WriteString("Here are the entities:\n")
	long.WriteString("Here are the entities:\n")
	for i := 0; i < 40; i++ {
		line := fmt.Sprintf("Country %d\n", i)
		if i < 4 {
			short.WriteString(line)
		}
		long.WriteString(line)
	}
	for _, text := range []string{short.String(), long.String()} {
		rows, _ := parseListCompletion(text, keySchema, []int{0}, 0, true)
		if n := strings.Count(text, "\n") - 1; len(rows) != n {
			t.Fatalf("parsed %d rows, want %d", len(rows), n)
		}
		got := testing.AllocsPerRun(100, func() {
			benchRows, _ = parseListCompletion(text, keySchema, []int{0}, 0, true)
		})
		if got != 2 {
			t.Errorf("parsing a %d-line KEYS completion allocated %.1f times, want 2", len(rows), got)
		}
	}
}

// roundsScan returns a scan whose runRounds runs the given number of
// serial sampling rounds, convergence never stopping it early.
func roundsScan(rounds int) *llmScan {
	cfg := DefaultConfig()
	cfg.MaxRounds = rounds
	cfg.StableRounds = rounds
	cfg.Temperature = 0.7
	cfg.Parallelism = 1
	return &llmScan{store: newLLMStore(nil, nil, &backendStack{}, cfg), strategy: StrategyKeyThenAttr}
}

// runRoundsAllocs measures one runRounds call whose every round parses to
// the same key-only rows; the completion and its parse cost nothing here,
// so what is counted is the round loop's own entity bookkeeping.
func runRoundsAllocs(t *testing.T, rounds int, rows []rel.Row) float64 {
	sc := roundsScan(rounds)
	issue := func(int64) (llm.CompletionResponse, error) { return llm.CompletionResponse{}, nil }
	parse := func(string) []rel.Row { return rows }
	return testing.AllocsPerRun(100, func() {
		sc.stats = ScanStats{}
		out, err := sc.runRounds(false, 0, issue, parse)
		if err != nil || len(out) != len(rows) || sc.stats.Rounds != rounds {
			t.Fatalf("runRounds: %d rows after %d rounds, err %v", len(out), sc.stats.Rounds, err)
		}
	})
}

// TestRunRoundsRepeatedKeyAllocs pins a key repeated in a later sampling
// round to zero allocations: three rounds of the same keys cost what one
// round does (each case-folded new key and the output slice).
func TestRunRoundsRepeatedKeyAllocs(t *testing.T) {
	keys := []rel.Row{{rel.Text("France")}, {rel.Text("United Kingdom")}, {rel.Text("Côte d'Ivoire")}, {rel.Text("japan")}}
	one, three := runRoundsAllocs(t, 1, keys), runRoundsAllocs(t, 3, keys)
	if three != one {
		t.Fatalf("3 rounds of the same keys allocated %.1f times, 1 round %.1f: repeats must be free", three, one)
	}
}

// TestRunRoundsOneRowAllocs pins the smallest enumeration, one round of
// one row, to the two allocations it cost with string-keyed maps: the
// folded key and the output slice. The entity numbering lives on the
// stack until it outgrows its buffers.
func TestRunRoundsOneRowAllocs(t *testing.T) {
	if got := runRoundsAllocs(t, 1, []rel.Row{{rel.Text("France")}}); got > 2 {
		t.Fatalf("a one-round, one-row enumeration allocated %.1f times, want at most 2", got)
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
