package llm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// goldenRequest is one pinned fingerprint: on-disk caches and the checked-in
// replay fixture are addressed by these values, so the encoding must never
// drift without a FingerprintVersion bump.
type goldenRequest struct {
	model string
	req   CompletionRequest
	fp    string
}

func goldenRequests() []goldenRequest {
	return []goldenRequest{
		{"synth-gpt", CompletionRequest{},
			"57466181dc4912405458fb6ed5d3ff5c0019fa4dfe639137810b0b12f396e97b"},
		{"synth-gpt", CompletionRequest{Prompt: "TASK: ATTR\nENTITY: France\nCOLUMN: capital", MaxTokens: 64, Temperature: 0.7, Seed: 1001},
			"129c8219d46880aee74527018a55da1a3e981543cc8ce7437ade7741195465bf"},
		{"synth-gpt", CompletionRequest{Prompt: "p", MaxTokens: 256, Temperature: 1e-7, Seed: 3},
			"5b882085119075ca69d503dfdd5cbf1b6d23eb82fe08805802a0bd094c9a3c3a"},
		{"synth-gpt", CompletionRequest{Prompt: "p", MaxTokens: 256, Temperature: 1e21, Seed: 3},
			"12d06b55bf88ace531e887c6316b0134c9e6d8088fd75fb5e4c3adbdef465cc2"},
		{"synth-gpt", CompletionRequest{Prompt: "p", MaxTokens: 256, Temperature: math.Copysign(0, -1), Seed: 3},
			"92a9d211a773bfa2399508985fb4504857ff6d7891bb7907077b2b87d0d78688"},
		{"synth-gpt", CompletionRequest{Prompt: "p", MaxTokens: 256, Temperature: math.Inf(1), Seed: 3},
			"065ca516e0144e0ba2f32410a9da744eb2891dc066be9ec9f4c723d9a7d511bf"},
		{"synth-gpt", CompletionRequest{Prompt: "p", MaxTokens: 256, Temperature: math.NaN(), Seed: 3},
			"494bb9fb5a9a6e10f77d3573218bba0eda470c4ba9b06a20fd0a6fe1716fc7d0"},
		{"synth-gpt", CompletionRequest{Prompt: "p", MaxTokens: 0, Temperature: 1, Seed: -42},
			"f2bac29a52c77cce3f068cb93596af85a986fdc31d48961c486b1ed93babcdd2"},
		{"modèle-東京", CompletionRequest{Prompt: "ENTITIES: Côte d'Ivoire | São Tomé and Príncipe | 東京", MaxTokens: 32, Temperature: 0.3, Seed: 7},
			"86868e9596f907ff421123c20fa9f3210a6c281767b40c84e3a12884953f9045"},
		{"synth-gpt", CompletionRequest{Prompt: strings.Repeat("0123456789abcdef", 160) + "tail", MaxTokens: 512, Temperature: 2, Seed: math.MaxInt64},
			"ec34bb35828733cbb81093d89e32eeac2e6aa245be44b3da2d253d4e687de3f4"},
	}
}

func TestFingerprintGolden(t *testing.T) {
	for i, g := range goldenRequests() {
		if got := Fingerprint(g.model, g.req); got != g.fp {
			t.Errorf("request %d: Fingerprint = %s, want %s", i, got, g.fp)
		}
	}
}

// fmtFingerprint is the fmt-based encoding Fingerprint replaced, kept as
// the reference the allocation-free encoder must reproduce byte for byte.
func fmtFingerprint(model string, req CompletionRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "llmsql-fp-v%d\x00%s\x00%d\x00%g\x00%d\x00",
		FingerprintVersion, model, req.MaxTokens, req.Temperature, req.Seed)
	h.Write([]byte(req.Prompt))
	return hex.EncodeToString(h.Sum(nil))
}

func TestFingerprintMatchesFmtEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	temps := []float64{0, 1, 0.25, 1e-5, 1e-4, 123456, 1e6, 1e21, -1.5, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i < 2000; i++ {
		temp := temps[i%len(temps)]
		switch i % 3 {
		case 1:
			temp = rng.Float64() * 2
		case 2:
			temp = math.Float64frombits(rng.Uint64())
		}
		prompt := strings.Repeat("x", rng.Intn(3000))
		req := CompletionRequest{Prompt: prompt, MaxTokens: rng.Intn(5000) - 100, Temperature: temp, Seed: rng.Int63() - rng.Int63()}
		if got, want := Fingerprint("m", req), fmtFingerprint("m", req); got != want {
			t.Fatalf("request %+v: Fingerprint = %s, fmt encoding = %s", req, got, want)
		}
	}
}

// fixedModel answers every request with one preallocated response, so
// allocation pins measure only the wrappers above it.
type fixedModel struct{ resp CompletionResponse }

func (f *fixedModel) Name() string { return "fixed" }

func (f *fixedModel) Complete(CompletionRequest) (CompletionResponse, error) { return f.resp, nil }

// TestRetrierSuccessAllocs pins the Retrier's success path to zero
// allocations over its inner model: it hashes a request only to back off.
func TestRetrierSuccessAllocs(t *testing.T) {
	inner := &fixedModel{resp: CompletionResponse{Text: "Paris", PromptTokens: 40, CompletionTokens: 1}}
	r := NewRetrier(inner, RetryPolicy{})
	req := goldenRequests()[1].req
	base := testing.AllocsPerRun(100, func() { inner.Complete(req) })
	got := testing.AllocsPerRun(100, func() { r.Complete(req) })
	if got != base {
		t.Fatalf("Retrier success path allocated %.1f times per call, its inner model %.1f; want no extra", got, base)
	}
}

// TestFingerprintAllocs pins the encoder to the one allocation of the
// returned string for prompts that fit its stack buffer.
func TestFingerprintAllocs(t *testing.T) {
	req := goldenRequests()[1].req
	if got := testing.AllocsPerRun(100, func() { Fingerprint("synth-gpt", req) }); got != 1 {
		t.Fatalf("Fingerprint allocated %.1f times per call, want 1", got)
	}
}

var fpSink string

func BenchmarkFingerprint(b *testing.B) {
	req := CompletionRequest{
		Prompt:      "You are a precise data assistant. Answer strictly from your world knowledge.\nTASK: ATTRS\nTABLE: country -- a sovereign country of the world\nENTITIES: France | Germany | Italy | Spain\nCOLUMN: capital -- the capital city\nRespond with one line per entity, in the order given, formatted as '<entity> | <value>'. Output data only, no commentary.",
		MaxTokens:   256,
		Temperature: 0.7,
		Seed:        1001,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fpSink = Fingerprint("synth-gpt", req)
	}
}
