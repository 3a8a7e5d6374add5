package llm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// echoModel returns a canned completion, for wrapper tests.
type echoModel struct {
	mu    sync.Mutex
	calls int
}

func (e *echoModel) Name() string { return "echo" }

func (e *echoModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	e.mu.Lock()
	e.calls++
	e.mu.Unlock()
	text := fmt.Sprintf("echo:%d:%d", len(req.Prompt), req.Seed)
	return CompletionResponse{
		Text:             text,
		PromptTokens:     CountTokens(req.Prompt),
		CompletionTokens: CountTokens(text),
	}, nil
}

func TestCostModel(t *testing.T) {
	c := CostModel{
		PerCallLatency:       100 * time.Millisecond,
		PerPromptToken:       time.Millisecond,
		PerCompletionToken:   10 * time.Millisecond,
		PromptUSDPerMTok:     1.0,
		CompletionUSDPerMTok: 3.0,
	}
	lat := c.Latency(50, 20)
	want := 100*time.Millisecond + 50*time.Millisecond + 200*time.Millisecond
	if lat != want {
		t.Fatalf("latency: %v want %v", lat, want)
	}
	d := c.Dollars(1_000_000, 1_000_000)
	if d != 4.0 {
		t.Fatalf("dollars: %f", d)
	}
}

func TestCountingModel(t *testing.T) {
	inner := &echoModel{}
	cm := NewCounting(inner)
	for i := 0; i < 3; i++ {
		if _, err := cm.Complete(CompletionRequest{Prompt: "hello world"}); err != nil {
			t.Fatal(err)
		}
	}
	u := cm.Usage()
	if u.Calls != 3 {
		t.Fatalf("calls: %d", u.Calls)
	}
	// "hello world" tokenizes as hell|o|worl|d = 4 tokens per call.
	if u.PromptTokens != 3*4 {
		t.Fatalf("prompt tokens: %d", u.PromptTokens)
	}
	if u.SimLatency <= 0 || u.SimDollars <= 0 {
		t.Fatalf("cost accounting: %+v", u)
	}
	cm.Reset()
	if cm.Usage().Calls != 0 {
		t.Fatal("reset failed")
	}
}

func TestUsageAdd(t *testing.T) {
	a := Usage{Calls: 1, PromptTokens: 10, CompletionTokens: 5, SimLatency: time.Second, SimDollars: 0.5}
	b := Usage{Calls: 2, PromptTokens: 20, CompletionTokens: 15, SimLatency: time.Second, SimDollars: 1.0}
	a.Add(b)
	if a.Calls != 3 || a.TotalTokens() != 50 || a.SimDollars != 1.5 {
		t.Fatalf("add: %+v", a)
	}
}

func TestCacheModel(t *testing.T) {
	inner := &echoModel{}
	cache := NewCache(inner)
	req := CompletionRequest{Prompt: "p", Seed: 1}
	r1, err := cache.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cache.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Text != r2.Text {
		t.Fatal("cache changed result")
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls: %d", inner.calls)
	}
	// Different seed misses.
	if _, err := cache.Complete(CompletionRequest{Prompt: "p", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 2 {
		t.Fatalf("inner calls after seed change: %d", inner.calls)
	}
	s := cache.CacheStats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestCountingModelConcurrent(t *testing.T) {
	cm := NewCounting(&echoModel{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := cm.Complete(CompletionRequest{Prompt: "x"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cm.Usage().Calls != 400 {
		t.Fatalf("concurrent calls: %d", cm.Usage().Calls)
	}
}

// scriptedModel answers each prompt with a fixed response.
type scriptedModel map[string]CompletionResponse

func (m scriptedModel) Name() string { return "scripted" }

func (m scriptedModel) Complete(req CompletionRequest) (CompletionResponse, error) {
	return m[req.Prompt], nil
}

// TestCountingModelOrderIndependent passes the same responses through
// CountingModel in different orders: the accumulated Usage — SimDollars
// included — must be bit-identical, since concurrent scans complete calls
// in whatever order the scheduler happens to pick.
func TestCountingModelOrderIndependent(t *testing.T) {
	script := scriptedModel{}
	var prompts []string
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("p%d", i)
		prompts = append(prompts, p)
		script[p] = CompletionResponse{
			PromptTokens:     97 + 13*i,
			CompletionTokens: 7 + 5*i,
			Attempts:         1 + i%3,
			HedgeLaunched:    i%4 == 0,
			FaultLatency:     time.Duration(i) * time.Millisecond,
			// A losing hedge every few calls exercises wasted-token billing.
			WastedPromptTokens:     (i % 3) * 11,
			WastedCompletionTokens: (i % 3) * 3,
		}
	}
	// Prices with no exact binary representation, so a float64 running sum
	// would drift with the order of addition.
	cost := DefaultCostModel()
	cost.PromptUSDPerMTok = 0.15
	cost.CompletionUSDPerMTok = 0.6

	run := func(order []string) Usage {
		cm := NewCounting(script)
		cm.Cost = cost
		for _, p := range order {
			if _, err := cm.Complete(CompletionRequest{Prompt: p}); err != nil {
				t.Fatal(err)
			}
		}
		return cm.Usage()
	}
	want := run(prompts)
	if want.SimDollars <= 0 {
		t.Fatalf("no spend accumulated: %+v", want)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		order := append([]string(nil), prompts...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := run(order); got != want {
			t.Fatalf("order %v: usage %+v, want %+v", order, got, want)
		}
	}
}
