package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/obs"
)

// collectSuiteRecords runs a reduced suite through an engine with the given
// worker count and returns the collected RunRecords with timing zeroed.
func collectSuiteRecords(t *testing.T, workers int) []obs.RunRecord {
	t.Helper()
	c := &obs.Collector{}
	ctx := obs.WithCollector(context.Background(), c)
	set := SuiteSet([]string{"gcc", "xz"}, []string{"objdet"}, QuickScale(), testSeed, 2)
	if _, err := engine.Execute(ctx, engine.New(workers), set); err != nil {
		t.Fatal(err)
	}
	recs := c.Records()
	for i := range recs {
		recs[i].ElapsedMS = 0
	}
	return recs
}

// TestRunRecordsDeterministicAcrossWorkerCounts is the telemetry arm of
// the determinism contract on a suite set built directly rather than
// through the registry: the JSONL and CSV emitted must be byte-identical
// whether its scenarios run serially or through a 4-worker pool, once
// elapsed_ms (the one sanctioned nondeterministic field) is excluded.
func TestRunRecordsDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism check")
	}
	serial := collectSuiteRecords(t, 1)
	parallel := collectSuiteRecords(t, 4)

	var a, b bytes.Buffer
	if err := obs.WriteJSONL(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("RunRecord JSONL differs between 1 and 4 workers:\n--- 1 worker ---\n%s--- 4 workers ---\n%s",
			a.String(), b.String())
	}
	a.Reset()
	b.Reset()
	if err := obs.WriteCSV(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteCSV(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("RunRecord CSV differs between 1 and 4 workers")
	}
}

// TestRunCtxEmitsRunRecord pins the single-scenario telemetry path: a
// RunCtx call with a collector attached emits exactly one record carrying
// the scenario identity, its fingerprint, and a non-empty counter set.
func TestRunCtxEmitsRunRecord(t *testing.T) {
	s := Scenario{Benchmark: "gcc", Scale: QuickScale(), Seed: testSeed}
	c := &obs.Collector{}
	ctx := obs.WithCollector(context.Background(), c)
	if _, err := RunCtx(ctx, s); err != nil {
		t.Fatal(err)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("collected %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Set != "adhoc" || rec.Scenario != s.Identity() {
		t.Errorf("record identity = %s/%s, want adhoc/%s", rec.Set, rec.Scenario, s.Identity())
	}
	if rec.Fingerprint != s.Fingerprint() || len(rec.Fingerprint) != 16 {
		t.Errorf("record fingerprint = %q, want %q", rec.Fingerprint, s.Fingerprint())
	}
	if rec.Counters.Len() == 0 {
		t.Error("record carries no counters")
	}
	if v, ok := rec.Counters.Get("machine.accesses"); !ok || v == 0 {
		t.Errorf("machine.accesses = %d, %v", v, ok)
	}
}

// TestRunCtxUsesEngineScenarioInfo pins that a scenario running inside an
// engine set is recorded under the set's identity, not the adhoc fallback.
func TestRunCtxUsesEngineScenarioInfo(t *testing.T) {
	s := Scenario{Benchmark: "gcc", Scale: QuickScale(), Seed: testSeed}
	c := &obs.Collector{}
	ctx := obs.WithCollector(context.Background(), c)
	ctx = engine.WithScenarioInfo(ctx, engine.ScenarioInfo{Set: "myset", Scenario: "case-a"})
	if _, err := RunCtx(ctx, s); err != nil {
		t.Fatal(err)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("collected %d records, want 1", len(recs))
	}
	if recs[0].Set != "myset" || recs[0].Scenario != "case-a" {
		t.Errorf("record identity = %s/%s, want myset/case-a", recs[0].Set, recs[0].Scenario)
	}
}

// TestScenarioIdentityAndFingerprint pins the identity scheme RunRecords
// key on: bench[+corunners]/policy, and a fingerprint that moves with any
// configuration change but not with repetition.
func TestScenarioIdentityAndFingerprint(t *testing.T) {
	a := Scenario{Benchmark: "gcc", Corunners: []string{"objdet", "pyaes"}, Scale: QuickScale(), Seed: testSeed}
	if id := a.Identity(); !strings.HasPrefix(id, "gcc+objdet,pyaes/") {
		t.Errorf("Identity() = %q", id)
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not stable")
	}
	b := a
	b.Seed++
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprint ignores the seed")
	}
}
