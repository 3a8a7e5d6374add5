package core

import (
	"reflect"
	"testing"

	"llmsql/internal/llm"
)

// groupConfig is the serving-test workload shape: the key-then-attr hot
// path with voting, sampling and both fan-out axes live, no per-session
// memory cache (so every consumed call is visible to the coalescer).
func groupConfig() Config {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKeyThenAttr
	cfg.Votes = 2
	cfg.MaxRounds = 3
	cfg.Temperature = 0.7
	cfg.Parallelism = 2
	cfg.BatchSize = 2
	return cfg
}

// zeroCoalesced strips the only field allowed to differ between a solo run
// and a coalesced session run.
func zeroCoalesced(scans []ScanStats) []ScanStats {
	out := make([]ScanStats, len(scans))
	for i, s := range scans {
		s.CoalescedHits = 0
		out[i] = s
	}
	return out
}

func TestGroupSessionsSoloIdenticalWithOneLiveFanOut(t *testing.T) {
	w := parWorld()
	const query = "SELECT name, capital, population FROM country"

	// Reference: a solo engine over its own model.
	solo := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	for _, name := range w.DomainNames() {
		solo.RegisterWorldDomain(w.Domain(name))
	}
	soloRes, err := solo.Query(query)
	if err != nil {
		t.Fatal(err)
	}

	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, name := range w.DomainNames() {
		g.RegisterWorldDomain(w.Domain(name))
	}

	const K = 3
	for i := 0; i < K; i++ {
		e := g.Session()
		res, err := e.Query(query)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if got, want := renderRows(res.Result.Rows), renderRows(soloRes.Result.Rows); got != want {
			t.Fatalf("session %d rows differ from solo run", i)
		}
		if res.Usage != soloRes.Usage {
			t.Fatalf("session %d usage differs: %+v vs solo %+v", i, res.Usage, soloRes.Usage)
		}
		if !reflect.DeepEqual(zeroCoalesced(res.Scans), zeroCoalesced(soloRes.Scans)) {
			t.Fatalf("session %d scans differ: %+v vs solo %+v", i, res.Scans, soloRes.Scans)
		}
		if i == 0 {
			if res.Scans[0].CoalescedHits != 0 {
				t.Fatalf("first session must be all live: %+v", res.Scans[0])
			}
		} else if got := res.Scans[0].CoalescedHits; got != res.Scans[0].Prompts {
			t.Fatalf("session %d: %d of %d consumed calls coalesced", i, got, res.Scans[0].Prompts)
		}
		g.CloseSession(e)
	}

	s := g.Stats()
	if s.Coalescer.LiveCalls != soloRes.Usage.Calls {
		t.Fatalf("live calls = %d, want one fan-out = %d", s.Coalescer.LiveCalls, soloRes.Usage.Calls)
	}
	if s.Coalescer.Hits() != (K-1)*soloRes.Usage.Calls {
		t.Fatalf("coalesced hits = %d, want %d", s.Coalescer.Hits(), (K-1)*soloRes.Usage.Calls)
	}
	if s.Billed.Calls != K*soloRes.Usage.Calls {
		t.Fatalf("billed calls = %d, want %d", s.Billed.Calls, K*soloRes.Usage.Calls)
	}
	if s.Live.Calls != soloRes.Usage.Calls || s.Live.TotalTokens() != soloRes.Usage.TotalTokens() {
		t.Fatalf("live usage %+v, want solo %+v", s.Live, soloRes.Usage)
	}
	if s.TotalSessions != K || s.Sessions != 0 {
		t.Fatalf("session counts: %+v", s)
	}
}

func TestGroupRegistrationPropagatesToLiveSessions(t *testing.T) {
	w := parWorld()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	e := g.Session() // created before any table exists
	g.RegisterWorldDomain(w.Domain("country"))
	if _, err := e.Query("SELECT name FROM country LIMIT 1"); err != nil {
		t.Fatalf("live session must see tables registered later: %v", err)
	}
	// And sessions created afterwards see them too.
	e2 := g.Session()
	if _, err := e2.Query("SELECT name FROM country LIMIT 1"); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSharedLocalStore(t *testing.T) {
	w := parWorld()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	a, b := g.Session(), g.Session()
	// Warm b's plan cache on a statement the write below could invalidate.
	if err := a.Exec("CREATE TABLE note (id INT PRIMARY KEY, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	if err := a.Exec("INSERT INTO note VALUES (1, 'hello')"); err != nil {
		t.Fatal(err)
	}
	g.InvalidatePlans()
	res, err := b.Query("SELECT body FROM note")
	if err != nil {
		t.Fatalf("write through session a must be visible to session b: %v", err)
	}
	if len(res.Result.Rows) != 1 || res.Result.Rows[0][0].String() != "hello" {
		t.Fatalf("rows: %v", res.Result.Rows)
	}
}

func TestGroupCloseSessionFoldsBilledUsage(t *testing.T) {
	w := parWorld()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterWorldDomain(w.Domain("country"))
	e := g.Session()
	res, err := e.Query("SELECT name FROM country LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	before := g.Stats()
	g.CloseSession(e)
	g.CloseSession(e) // double-close is a no-op
	after := g.Stats()
	if before.Billed != after.Billed {
		t.Fatalf("billed usage changed across close: %+v vs %+v", before.Billed, after.Billed)
	}
	if after.Billed.Calls != res.Usage.Calls {
		t.Fatalf("billed calls = %d, want %d", after.Billed.Calls, res.Usage.Calls)
	}
}

// TestSessionSeesSharedStack checks that a session reaches the group's
// shared layers through its own engine API — the view-refresh probe, cache
// invalidation and DiskCacheStats all report the shared persistent cache —
// and that closing or repricing a session leaves those layers alone.
func TestSessionSeesSharedStack(t *testing.T) {
	w := testWorld()
	cfg := viewTestConfig()
	cfg.Temperature = 0 // single deterministic enumeration round
	cfg.Votes = 1
	cfg.CacheDir = t.TempDir()
	g, err := NewEngineGroup(llm.NewSynthLM(w, llm.ProfileMedium, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, name := range w.DomainNames() {
		g.RegisterWorldDomain(w.Domain(name))
	}

	s := g.Session()
	if err := s.Exec("CREATE MATERIALIZED VIEW v AS SELECT name, capital FROM country"); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec("REFRESH MATERIALIZED VIEW v"); err != nil {
		t.Fatal(err)
	}
	shared := g.Stats().DiskCache
	if shared.Entries == 0 {
		t.Fatalf("shared disk cache is empty after the build: %+v", shared)
	}
	info, _ := s.View("v")
	if info.LastWarmFingerprints != shared.Entries || info.LastColdFingerprints == 0 {
		// Every persisted completion is warm; the manifest also holds
		// requests the build never issued (cold).
		t.Fatalf("refresh probe saw %d warm / %d cold, shared cache holds %d",
			info.LastWarmFingerprints, info.LastColdFingerprints, shared.Entries)
	}
	if got := s.DiskCacheStats(); got != shared {
		t.Fatalf("session DiskCacheStats = %+v, want the shared cache's %+v", got, shared)
	}
	reqs, err := s.ViewRequests("v")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.InvalidateCachedCompletions(reqs...); n != shared.Entries {
		t.Fatalf("invalidated %d of %d shared entries (manifest %d)", n, shared.Entries, len(reqs))
	}

	// Repricing and closing the session must not touch the shared layers.
	liveCost := g.stack.live.Cost
	pricey := llm.DefaultCostModel()
	pricey.CompletionUSDPerMTok *= 10
	s.CostModel(pricey)
	if g.stack.live.Cost != liveCost {
		t.Fatal("session CostModel repriced the group's live counter")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	g.CloseSession(s)
	s2 := g.Session()
	if _, err := s2.Query("SELECT name, population FROM country"); err != nil {
		t.Fatal(err)
	}
	if after := g.Stats().DiskCache; after.WriteErrors != 0 || after.Entries == 0 {
		t.Fatalf("shared disk cache stopped persisting after a session Close: %+v", after)
	}

	// A solo engine owns its stack, so its CostModel does reprice it.
	solo := New(llm.NewSynthLM(w, llm.ProfileMedium, 7), viewTestConfig())
	solo.CostModel(pricey)
	if solo.store.stack.live.Cost != pricey {
		t.Fatal("solo CostModel left its live counter unrepriced")
	}
}
