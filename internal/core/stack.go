package core

import (
	"fmt"

	"llmsql/internal/llm"
)

// backendStack is the shared part of a backend: every layer below an
// engine's own billing CountingModel and in-memory CacheModel, held as
// typed handles. buildStack assembles it; a solo engine owns its stack,
// while an EngineGroup puts a Coalescer on top and shares the one stack
// with all of its sessions.
type backendStack struct {
	top     llm.Model          // the outermost layer, the one engines sit on
	live    *llm.CountingModel // live (operator-side) usage, below the retrier
	retrier *llm.Retrier
	chaos   *llm.Chaos     // nil unless Config.Chaos is enabled
	disk    *llm.DiskCache // nil unless Config.CacheDir is set
	coal    *llm.Coalescer // nil outside an EngineGroup
}

// buildStack assembles the backend stack over the model, innermost first:
// the trace recorder or replayer (Config.RecordTrace / ReplayTrace), Chaos
// (when Config.Chaos is enabled), the live CountingModel, the Retrier and
// the DiskCache (when Config.CacheDir is set). A replay trace substitutes
// the base model entirely (only its name is used). Chaos sits above the
// trace, so recorded traces hold only clean completions. The live counter
// sees exactly the successful traffic that reaches the provider: disk hits
// never do, while both halves of a hedge race do. The Retrier sits below
// every cache, so a cache hit can never fault and a retried answer is
// cached once, and above Chaos, so retries see fresh fault draws.
func buildStack(model llm.Model, cfg Config) (*backendStack, error) {
	base := model
	switch {
	case cfg.ReplayTrace != nil:
		base = cfg.ReplayTrace.Replay(model.Name())
	case cfg.RecordTrace != nil:
		base = cfg.RecordTrace.Record(model)
	}
	st := &backendStack{}
	if cfg.Chaos.Enabled() {
		st.chaos = llm.NewChaos(base, cfg.Chaos)
		base = st.chaos
	}
	st.live = llm.NewCounting(base)
	st.retrier = llm.NewRetrier(st.live, cfg.Retry)
	st.top = st.retrier
	if cfg.CacheDir != "" {
		disk, err := llm.NewDiskCache(st.top, cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("core: open cache dir %q: %w", cfg.CacheDir, err)
		}
		st.disk, st.top = disk, disk
	}
	return st, nil
}

// close releases the persistent cache's segment file, if any.
func (st *backendStack) close() error {
	if st.disk == nil {
		return nil
	}
	return st.disk.Close()
}
