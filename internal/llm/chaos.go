package llm

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// ChaosProfile configures the deterministic fault injector. The zero value
// injects nothing (Enabled reports false), so a Config can carry one
// unconditionally. Rates are independent per-call probabilities in [0,1];
// their sum is clamped to 1 by normalization, faulting every call when the
// caller over-provisions.
type ChaosProfile struct {
	// Seed keys the fault stream. Two runs with the same seed and the same
	// request sequence inject byte-identical faults.
	Seed int64
	// TransientRate injects retryable provider errors (the request never
	// reaches the inner backend).
	TransientRate float64
	// RateLimitRate injects capacity rejections (classified RateLimited,
	// so the Retrier backs off harder).
	RateLimitRate float64
	// MalformedRate injects completions that fail response validation —
	// modeled as a retryable decode error, never as corrupted text handed
	// to the parser, so surviving rows stay byte-identical to a fault-free
	// run.
	MalformedRate float64
	// SpikeRate lets a call through but adds SpikeLatency of virtual time
	// to it (a slow replica, a long queue) — the trigger hedged requests
	// care about.
	SpikeRate    float64
	SpikeLatency time.Duration
}

// Enabled reports whether any fault class has a positive rate.
func (p ChaosProfile) Enabled() bool {
	return p.TransientRate > 0 || p.RateLimitRate > 0 || p.MalformedRate > 0 || p.SpikeRate > 0
}

// FailureRate returns the per-attempt probability that a call fails
// outright (transient, rate-limit or malformed; spikes delay but succeed),
// clamped to [0,1]. The scan cost estimator prices expected retry overhead
// from it.
func (p ChaosProfile) FailureRate() float64 {
	p = p.normalized()
	r := p.TransientRate + p.RateLimitRate + p.MalformedRate
	if r > 1 {
		r = 1
	}
	return r
}

// normalized clamps each rate into [0,1] and the spike latency to >= 0.
func (p ChaosProfile) normalized() ChaosProfile {
	clamp := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	p.TransientRate = clamp(p.TransientRate)
	p.RateLimitRate = clamp(p.RateLimitRate)
	p.MalformedRate = clamp(p.MalformedRate)
	p.SpikeRate = clamp(p.SpikeRate)
	if p.SpikeLatency < 0 {
		p.SpikeLatency = 0
	}
	return p
}

// ChaosStats counts injected faults by class.
type ChaosStats struct {
	// Calls counts completions that reached the injector.
	Calls int
	// Transient / RateLimited / Malformed count injected failures (the
	// inner backend was never called); Spikes count delayed successes.
	Transient   int
	RateLimited int
	Malformed   int
	Spikes      int
}

// Chaos is a Backend wrapper that injects deterministic faults in front of
// the inner backend. Each completion draws one uniform from an fnv-64 hash
// of (profile seed, request fingerprint, per-fingerprint attempt number) —
// no wall clock, no global rand — and maps it onto the fault classes by
// cumulative rate. Keying on the attempt number means a retry of the same
// request re-draws independently (a transient fault clears on retry with
// probability 1-rate), while keying on the fingerprint makes the stream
// independent of call order: any interleaving of distinct requests sees
// the same per-request fault history, which is what makes chaos runs
// replayable at any Parallelism.
//
// Determinism assumes same-fingerprint requests are not issued
// concurrently; the engine's stacks guarantee that (the Coalescer
// single-flights duplicates, and the Retrier serializes its own attempts).
type Chaos struct {
	Inner Model

	profile ChaosProfile

	mu       sync.Mutex
	attempts map[string]int // fingerprint -> next attempt number
	stats    ChaosStats
}

// NewChaos wraps inner with the fault injector described by profile.
func NewChaos(inner Model, profile ChaosProfile) *Chaos {
	return &Chaos{
		Inner:    inner,
		profile:  profile.normalized(),
		attempts: make(map[string]int),
	}
}

// Name implements Model.
func (c *Chaos) Name() string { return c.Inner.Name() }

// Complete implements Model: it draws the fault class for this attempt
// and either fails without touching the inner backend, passes through, or
// passes through with SpikeLatency added to the response's FaultLatency.
func (c *Chaos) Complete(req CompletionRequest) (CompletionResponse, error) {
	fp := Fingerprint(c.Name(), req)
	c.mu.Lock()
	attempt := c.attempts[fp]
	c.attempts[fp] = attempt + 1
	c.stats.Calls++
	c.mu.Unlock()

	u := chaosU(c.profile.Seed, fp, attempt)
	p := c.profile
	switch {
	case u < p.TransientRate:
		c.count(func(s *ChaosStats) { s.Transient++ })
		return CompletionResponse{}, fmt.Errorf("chaos: injected transient failure (attempt %d): %w", attempt, Retryable)
	case u < p.TransientRate+p.RateLimitRate:
		c.count(func(s *ChaosStats) { s.RateLimited++ })
		return CompletionResponse{}, fmt.Errorf("chaos: injected rate limit (attempt %d): %w", attempt, RateLimited)
	case u < p.TransientRate+p.RateLimitRate+p.MalformedRate:
		c.count(func(s *ChaosStats) { s.Malformed++ })
		return CompletionResponse{}, fmt.Errorf("chaos: injected malformed completion (attempt %d): %w", attempt, Retryable)
	}
	resp, err := c.Inner.Complete(req)
	if err != nil {
		return resp, err
	}
	if u < p.TransientRate+p.RateLimitRate+p.MalformedRate+p.SpikeRate {
		c.count(func(s *ChaosStats) { s.Spikes++ })
		resp.FaultLatency += p.SpikeLatency
	}
	return resp, nil
}

func (c *Chaos) count(f func(*ChaosStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// Stats returns a snapshot of the injection counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// chaosU derives the uniform in [0,1) deciding one attempt's fate. Same
// derivation idiom as SynthLM's knowledge layer: fnv-64a over the identity
// tuple, top 53 bits as the mantissa. The attempt number is hashed before
// the fingerprint: fnv's single post-xor multiply diffuses a trailing-byte
// difference only into the low ~48 bits, which the mantissa's top bits
// never see — attempt-last would make every retry redraw the first
// attempt's fate. Leading with it sends the difference through one
// multiply per fingerprint byte, which is plenty of avalanche.
func chaosU(seed int64, fp string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "chaos|%d|%d|%s", seed, attempt, fp)
	return float64(h.Sum64()>>11) / float64(1<<53)
}
