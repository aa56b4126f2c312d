package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/faults"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/obs"
)

// TestChaosRetryEquivalence pins the recovery contract at machine level:
// a retried attempt (attempt index at FailAttempts, so its plan is
// inactive) produces a machine byte-identical in every counter to one
// that never had a plan installed.
func TestChaosRetryEquivalence(t *testing.T) {
	s := Scenario{
		Benchmark: "pagerank",
		Corunners: []string{"stress-ng"},
		Policy:    guestos.PolicyPTEMagnet,
		Scale:     QuickScale(),
		Seed:      testSeed,
	}
	cfg := faults.Config{Seed: 9, HostOOMs: 1, HostOOMSpan: 64, FailAttempts: 1}

	run := func(plan *faults.Plan) obs.Snapshot {
		t.Helper()
		m, err := BuildMachine(s)
		if err != nil {
			t.Fatal(err)
		}
		m.InstallFaultPlan(plan)
		if err := m.RunWith(context.Background()); err != nil {
			t.Fatal(err)
		}
		return m.Registry().Snapshot()
	}

	clean := run(nil)
	retried := run(faults.NewPlan(cfg, 1))
	if !reflect.DeepEqual(clean, retried) {
		t.Errorf("retried-clean attempt diverges from never-faulted run:\nclean:   %+v\nretried: %+v", clean, retried)
	}
}

// TestChaosJobRetryFlow pins the chaos run closure end to end: attempt 0
// dies on the injected host OOM (classified transient, accumulator
// updated), attempt 1 runs clean and reproduces the never-faulted
// measurements.
func TestChaosJobRetryFlow(t *testing.T) {
	base := Scenario{
		Benchmark: "pagerank",
		Corunners: []string{"stress-ng"},
		Policy:    guestos.PolicyPTEMagnet,
		Scale:     QuickScale(),
		Seed:      testSeed,
	}
	j := newChaosJob("t", faults.Config{Seed: 9, HostOOMs: 1, HostOOMSpan: 64, FailAttempts: 1}, base, base.spec())
	st := &chaosState{}

	_, err := runChaosJob(context.Background(), j, st)
	if err == nil {
		t.Fatal("attempt 0 survived an injected host OOM")
	}
	if !faults.IsTransient(err) {
		t.Fatalf("injected failure not classified transient: %v", err)
	}
	if st.failures != 1 || st.injected == 0 {
		t.Fatalf("accumulator = %+v after failed attempt", st)
	}

	got, err := runChaosJob(engine.WithAttempt(context.Background(), 1), j, st)
	if err != nil {
		t.Fatal(err)
	}
	jc := j
	jc.cfg = faults.Config{}
	want, err := runChaosJob(context.Background(), jc, &chaosState{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Frag != want.Frag || got.SteadyCycles != want.SteadyCycles {
		t.Errorf("retried run (frag %.3f, steady %d) != never-faulted run (frag %.3f, steady %d)",
			got.Frag, got.SteadyCycles, want.Frag, want.SteadyCycles)
	}
}

// TestChaosExhaustionYieldsPartialResults pins graceful degradation: with
// a fault campaign outlasting the retry budget, the sweep reports an
// error, but the result still carries every completed row plus failed
// rows with their full retry history.
func TestChaosExhaustionYieldsPartialResults(t *testing.T) {
	cfg := faults.Config{Seed: 4, HostOOMs: 1, HostOOMSpan: 64, FailAttempts: 10}
	r, err := RunExperiment(context.Background(), "chaos",
		WithScale(QuickScale()), WithSeed(testSeed),
		WithFaultPlan(cfg),
		WithRetry(engine.RetryPolicy{MaxAttempts: 2}))
	if err == nil {
		t.Fatal("exhausted sweep reported no error")
	}
	res, ok := r.(ChaosResult)
	if !ok {
		t.Fatalf("result type %T", r)
	}
	byName := map[string]ChaosRunResult{}
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	for _, name := range []string{"default/custom", "ptemagnet/custom"} {
		row, ok := byName[name]
		if !ok {
			t.Fatalf("row %q missing from partial results", name)
		}
		if !row.Failed || row.Attempts != 2 || row.Injected != 2 {
			t.Errorf("%s = %+v, want Failed with 2 attempts and 2 injections", name, row)
		}
	}
	for _, name := range []string{"default/clean", "ptemagnet/clean"} {
		row, ok := byName[name]
		if !ok || row.Failed || row.Injected != 0 {
			t.Errorf("%s = %+v (ok=%v), want a clean success", name, row, ok)
		}
	}
	if !strings.Contains(res.String(), "FAILED") {
		t.Error("rendered table does not mark the failed rows")
	}
}

// TestChaosForcedDirtyLogOverflowHitsRescan pins that the SiteDirtyLog
// injection reaches the migration's overflow-rescan path: a migration
// with forced overflows reports LogOverflows where the same migration
// without a plan reports none.
func TestChaosForcedDirtyLogOverflowHitsRescan(t *testing.T) {
	// An oversized dirty log keeps organic overflows out of the picture,
	// so every observed overflow is a forced one.
	mig := MigrationScenario{Policy: guestos.PolicyPTEMagnet, Scale: QuickScale(), Seed: testSeed, DirtyLogEntries: 1 << 20}
	j := newChaosJob("dirtylog", faults.Config{Seed: 2, DirtyLogOverflowEvery: 64, FailAttempts: 1}, mig, mig.spec())
	forced, err := runChaosJob(context.Background(), j, &chaosState{})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Injected == 0 {
		t.Fatal("no dirty-log overflows were forced")
	}
	if forced.LogOverflows == 0 {
		t.Error("forced overflows did not reach the migration rescan path")
	}

	jc := j
	jc.cfg = faults.Config{}
	clean, err := runChaosJob(context.Background(), jc, &chaosState{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.LogOverflows >= forced.LogOverflows {
		t.Errorf("forced run overflowed %d times, clean run %d — forcing had no effect",
			forced.LogOverflows, clean.LogOverflows)
	}
}
