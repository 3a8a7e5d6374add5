package llm

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasics(t *testing.T) {
	toks := Tokenize("The cat sat.")
	want := []string{"The", "cat", "sat", "."}
	if len(toks) != len(want) {
		t.Fatalf("tokens: %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("tok[%d] = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestTokenizeSubwordSplitting(t *testing.T) {
	toks := Tokenize("supersymmetrization")
	// 19 letters -> chunks of 4: 4+4+4+4+3 = 5 tokens.
	if len(toks) != 5 {
		t.Fatalf("subword count: %v", toks)
	}
	if strings.Join(toks, "") != "supersymmetrization" {
		t.Fatalf("subwords lose text: %v", toks)
	}
}

func TestTokenizePunctuation(t *testing.T) {
	toks := Tokenize("a|b || c")
	want := []string{"a", "|", "b", "|", "|", "c"}
	if len(toks) != len(want) {
		t.Fatalf("punct tokens: %v", toks)
	}
}

func TestCountTokensMatchesTokenize(t *testing.T) {
	f := func(s string) bool {
		n := CountTokens(s)
		return n == len(Tokenize(s)) && n == len(tokenSpans(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Word-length boundaries, mixed scripts and invalid UTF-8, which random
	// strings rarely hit.
	for _, s := range []string{
		"", " ", "a", "abc", "abcd", "abcde", "abcdefgh", "abcdefghi",
		"The cat sat.", "a|b || c", "snake_case_name42", "  lead\ttrail\r\n",
		"Côte d'Ivoire", "日本語 text", "\xff\xfeab\xc3", "x\u00a0y", "1,408.5 (2021)",
	} {
		if got, want := CountTokens(s), len(tokenSpans(s)); got != want {
			t.Errorf("CountTokens(%q) = %d, tokenSpans has %d", s, got, want)
		}
	}
}

// TestCountTokensAllocs pins CountTokens to zero allocations: scan pricing
// calls it on every plan-cache miss.
func TestCountTokensAllocs(t *testing.T) {
	text := strings.Repeat("TASK: KEYS for country | name (a sovereign state), 12 rows.\n", 8)
	if got := testing.AllocsPerRun(100, func() { CountTokens(text) }); got != 0 {
		t.Fatalf("CountTokens allocated %.1f times, want 0", got)
	}
}

func TestTruncateTokens(t *testing.T) {
	text := "one two tree four five"
	if got := TruncateTokens(text, 3); got != "one two tree" {
		t.Fatalf("truncate: %q", got)
	}
	if got := TruncateTokens(text, 100); got != text {
		t.Fatalf("no-op truncate: %q", got)
	}
	if got := TruncateTokens(text, 0); got != "" {
		t.Fatalf("zero truncate: %q", got)
	}
	// Mid-word cut: "elephants" = 3 tokens (4+4+1).
	if got := TruncateTokens("elephants", 1); got != "elep" {
		t.Fatalf("mid-word: %q", got)
	}
}

// Property: truncation yields a prefix with exactly min(max, total) tokens.
func TestTruncateTokensProperty(t *testing.T) {
	f := func(s string, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		out := TruncateTokens(s, n)
		if !strings.HasPrefix(s, out) {
			return false
		}
		total := CountTokens(s)
		want := n
		if total < n {
			want = total
		}
		return CountTokens(out) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountTokensEmpty(t *testing.T) {
	if CountTokens("") != 0 || CountTokens("   \n\t ") != 0 {
		t.Fatal("whitespace must count zero tokens")
	}
}
