package llm

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// The model stack is built from pluggable backends. A Backend is anything
// that completes prompts — the same contract as Model; the two names are
// aliases. "Backend" is used when talking about the bottom of the stack and
// the persistence layers above it, "Model" when talking about the
// engine-facing top. The wrappers of this package, outermost first as the
// engine stacks them:
//
//	CountingModel          usage accounting (billing)
//	CacheModel             in-memory bounded LRU
//	Coalescer              cross-session request coalescing (serving only)
//	DiskCache              persistent content-addressed prompt cache
//	Retrier                retry, backoff, circuit breaker and hedging
//	CountingModel          live usage that reaches the backend
//	Chaos                  seeded fault injection
//	Recorder | Replayer    trace capture / deterministic playback
//	SynthLM (or any API)   the base backend
//
// The engine package assembles the stack and keeps a typed handle to each
// layer it needs (DESIGN.md "Backends and the completion-cache hierarchy").
// All persistent layers address completions by Fingerprint, the versioned
// content hash of (model id, prompt, decode parameters) — two requests
// share an answer exactly when their fingerprints match.
//
// Each layer that looks a request up by fingerprint (Coalescer, DiskCache,
// Chaos, Recorder or Replayer) hashes the request itself and passes the
// plain CompletionRequest down, so a layer from outside this package sees
// exactly the request its caller built. The Retrier hashes only when it
// must back off; CountingModel and CacheModel hash nothing.

// Backend is a pluggable completion provider. It is the same interface as
// Model under the name used for the storage side of the stack: SynthLM, a
// hosted API adapter, a Replayer serving a recorded trace, or a DiskCache
// layered over any of them.
type Backend = Model

// FingerprintVersion versions the content-address format. Bumping it
// invalidates every previously persisted cache entry and trace record: old
// fingerprints can no longer be produced, so stale completions are never
// served after a change to the prompt protocol or the fingerprint encoding
// itself.
const FingerprintVersion = 1

// Fingerprint returns the content address of one completion request against
// a named model: the hex SHA-256 of a versioned canonical encoding of the
// model id, the prompt and the decode parameters (max tokens, temperature,
// seed). Everything that can change a deterministic backend's answer is in
// the hash; nothing else is.
func Fingerprint(model string, req CompletionRequest) string {
	return fingerprintAt(FingerprintVersion, model, req)
}

// fingerprintAt is Fingerprint pinned to an explicit format version
// (exposed separately so versioning tests can produce "old" fingerprints).
func fingerprintAt(version int, model string, req CompletionRequest) string {
	// NUL-separated fields: no field can contain NUL, so the encoding is
	// injective and fingerprints cannot collide across field boundaries.
	// The bytes are those of fmt's "llmsql-fp-v%d\x00%s\x00%d\x00%g\x00%d\x00"
	// followed by the prompt; they are built without fmt, on the stack for
	// prompts of up to about 1 KiB.
	var stack [1024]byte
	b := append(stack[:0], "llmsql-fp-v"...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, 0)
	b = append(b, model...)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(req.MaxTokens), 10)
	b = append(b, 0)
	b = strconv.AppendFloat(b, req.Temperature, 'g', -1, 64)
	b = append(b, 0)
	b = strconv.AppendInt(b, req.Seed, 10)
	b = append(b, 0)
	b = append(b, req.Prompt...)
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}
