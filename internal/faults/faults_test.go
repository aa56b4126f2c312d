package faults

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func drainBuddy(p *Plan, n int) []int {
	var fired []int
	for i := 0; i < n; i++ {
		if p.FailAlloc(0) {
			fired = append(fired, i)
		}
	}
	return fired
}

// TestPlanDeterminism pins that equal (Config, attempt) pairs produce the
// identical firing sequence, and that distinct attempts differ.
func TestPlanDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, BuddyFails: 12, BuddyFailSpan: 512, FailAttempts: 2}
	a := drainBuddy(NewPlan(cfg, 0), 512)
	b := drainBuddy(NewPlan(cfg, 0), 512)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same config fired differently: %v vs %v", a, b)
	}
	if len(a) != 12 {
		t.Errorf("fired %d faults, want 12", len(a))
	}
	c := drainBuddy(NewPlan(cfg, 1), 512)
	if reflect.DeepEqual(a, c) {
		t.Error("attempts 0 and 1 produced the same schedule")
	}
}

// TestScheduleGap pins the recovery guarantee: no two scheduled faults at
// one site land within minGap events of each other, so an injected
// failure's in-run recovery (reclaim-retry, reservation fallback) cannot
// immediately hit another injected failure.
func TestScheduleGap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := Config{Seed: seed, BuddyFails: 32, BuddyFailSpan: 512}
		p := NewPlan(cfg, 0)
		at := p.buddy.at
		if len(at) != 32 {
			t.Fatalf("seed %d: scheduled %d faults, want 32", seed, len(at))
		}
		for i := 1; i < len(at); i++ {
			if at[i]-at[i-1] < minGap {
				t.Errorf("seed %d: events %d and %d closer than %d", seed, at[i-1], at[i], minGap)
			}
		}
	}
}

// TestScheduleClampsToSpan pins that an over-dense request degrades to
// what the span can hold instead of spinning forever.
func TestScheduleClampsToSpan(t *testing.T) {
	p := NewPlan(Config{Seed: 1, BuddyFails: 10_000, BuddyFailSpan: 64}, 0)
	at := p.buddy.at
	if len(at) == 0 || len(at) > (64+minGap-1)/minGap {
		t.Fatalf("scheduled %d faults in a span of 64", len(at))
	}
	if last := at[len(at)-1]; last > 64 {
		t.Errorf("event %d beyond span 64", last)
	}
	for i := 1; i < len(at); i++ {
		if at[i]-at[i-1] < minGap {
			t.Errorf("events %d and %d closer than %d", at[i-1], at[i], minGap)
		}
	}
}

// TestAttemptsBeyondFailAttemptsRunClean pins the recovery keying: the
// plan for attempt FailAttempts (and beyond) is inactive, so a retried
// scenario replays on a clean machine.
func TestAttemptsBeyondFailAttemptsRunClean(t *testing.T) {
	cfg := Config{Seed: 3, BuddyFails: 4, HostOOMs: 2, DirtyLogOverflowEvery: 1,
		MigrateDestOOMRound: 1, MigrateCancelRound: 1, FailAttempts: 2}
	for _, attempt := range []int{2, 3, 10} {
		p := NewPlan(cfg, attempt)
		if p.Active() {
			t.Errorf("attempt %d: plan active", attempt)
		}
		for i := 0; i < 100; i++ {
			if p.FailAlloc(0) || p.InjectHostOOM() != nil || p.ForceDirtyLogOverflow() ||
				p.DestOOM(1) != nil || p.CancelAtRound(1) != nil {
				t.Fatalf("attempt %d: inactive plan injected", attempt)
			}
		}
		if p.InjectedTotal() != 0 {
			t.Errorf("attempt %d: InjectedTotal = %d", attempt, p.InjectedTotal())
		}
	}
	if !NewPlan(cfg, 1).Active() {
		t.Error("attempt 1 should still be active with FailAttempts=2")
	}
}

// TestNilPlanIsInert pins typed-nil hook safety: a nil *Plan stored in a
// hook interface injects nothing.
func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.FailAlloc(0) || p.InjectHostOOM() != nil || p.ForceDirtyLogOverflow() ||
		p.DestOOM(1) != nil || p.CancelAtRound(1) != nil {
		t.Error("nil plan injected")
	}
	if p.Active() || p.Attempt() != 0 || p.InjectedTotal() != 0 || p.Injected(SiteBuddyAlloc) != 0 {
		t.Error("nil plan accessors not zero")
	}
}

// TestErrorTaxonomy pins that every injected error — bare or wrapped —
// is errors.Is-reachable from ErrInjected and classified by IsTransient.
func TestErrorTaxonomy(t *testing.T) {
	cfg := Config{Seed: 5, HostOOMs: 1, HostOOMSpan: 1, MigrateDestOOMRound: 2, MigrateCancelRound: 3}
	p := NewPlan(cfg, 0)
	var errs []error
	if err := p.InjectHostOOM(); err != nil {
		errs = append(errs, err)
	}
	if err := p.DestOOM(2); err != nil {
		errs = append(errs, err)
	}
	if err := p.CancelAtRound(3); err != nil {
		errs = append(errs, err)
	}
	if len(errs) != 3 {
		t.Fatalf("injected %d errors, want 3", len(errs))
	}
	for _, err := range errs {
		wrapped := fmt.Errorf("outer: %w", err)
		if !errors.Is(wrapped, ErrInjected) {
			t.Errorf("%v not reachable from ErrInjected", wrapped)
		}
		if !IsTransient(wrapped) {
			t.Errorf("%v not classified transient", wrapped)
		}
		var fe *Error
		if !errors.As(wrapped, &fe) {
			t.Errorf("%v not errors.As-matchable", wrapped)
		}
	}
	if organic := errors.New("organic failure"); IsTransient(organic) || errors.Is(organic, ErrInjected) {
		t.Error("organic error classified as injected")
	}
}

// TestDirtyLogOverflowCadence pins the every-Nth firing rule.
func TestDirtyLogOverflowCadence(t *testing.T) {
	p := NewPlan(Config{Seed: 1, DirtyLogOverflowEvery: 3}, 0)
	var fired []int
	for i := 1; i <= 9; i++ {
		if p.ForceDirtyLogOverflow() {
			fired = append(fired, i)
		}
	}
	if !reflect.DeepEqual(fired, []int{3, 6, 9}) {
		t.Errorf("fired at %v, want [3 6 9]", fired)
	}
	if p.Injected(SiteDirtyLog) != 3 {
		t.Errorf("SiteDirtyLog count = %d, want 3", p.Injected(SiteDirtyLog))
	}
}
