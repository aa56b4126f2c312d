package vm

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ptemagnet/internal/guestos"
	"ptemagnet/internal/workload"
)

// runSmallMachine builds and runs a small colocated scenario, returning the
// machine for observation.
func runSmallMachine(t *testing.T, policy guestos.AllocPolicy) *Machine {
	t.Helper()
	m, err := NewHost(smallConfig(policy))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddTask(workload.NewPagerank(smallGraph(7)), RolePrimary); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 2 << 20, Seed: 8}), RoleCorunner); err != nil {
		t.Fatal(err)
	}
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCountersMonotonicWithinRun pins the registry contract that counters
// only ever count up: every named counter reads zero on a fresh machine
// and is >= that floor after a run, and a second snapshot without further
// work is identical to the first.
func TestCountersMonotonicWithinRun(t *testing.T) {
	m, err := NewHost(smallConfig(guestos.PolicyPTEMagnet))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Registry().Snapshot()
	if before.Len() == 0 {
		t.Fatal("registry is empty")
	}
	if _, err := m.AddTask(workload.NewPagerank(smallGraph(7)), RolePrimary); err != nil {
		t.Fatal(err)
	}
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := m.Registry().Snapshot()
	if after.Len() != before.Len() {
		t.Fatalf("counter set changed mid-run: %d before, %d after", before.Len(), after.Len())
	}
	for i := 0; i < after.Len(); i++ {
		if after.Name(i) != before.Name(i) {
			t.Fatalf("counter %d renamed mid-run: %q -> %q", i, before.Name(i), after.Name(i))
		}
		// Per-guest "vm<i>." prefixes appear only on multi-guest hosts.
		if strings.HasPrefix(after.Name(i), "vm") {
			t.Errorf("single-guest machine registered prefixed counter %q", after.Name(i))
		}
		if after.Value(i) < before.Value(i) {
			t.Errorf("counter %s went backwards: %d -> %d", after.Name(i), before.Value(i), after.Value(i))
		}
	}
	if v, ok := after.Get("machine.accesses"); !ok || v == 0 {
		t.Errorf("machine.accesses = %d, %v after a run", v, ok)
	}
	again := m.Registry().Snapshot()
	if !reflect.DeepEqual(after.Delta(again), after.Delta(after)) {
		t.Error("counters moved between two idle snapshots")
	}
}

// TestStatsDeltaRoundTrip pins the Snapshot/Delta algebra on the machine's
// aggregated Stats: delta against the zero value is the identity, delta
// against itself is zero, and whole == init + steady window.
func TestStatsDeltaRoundTrip(t *testing.T) {
	m := runSmallMachine(t, guestos.PolicyPTEMagnet)
	s := m.Snapshot()
	if s.Accesses == 0 || s.Walker.Lookups == 0 || s.Guest.BuddyCalls == 0 {
		t.Fatalf("snapshot did not observe the run: %+v", s)
	}
	if got := s.Delta(Stats{}); !reflect.DeepEqual(got, s) {
		t.Errorf("Delta(zero) != identity:\n%+v\n%+v", got, s)
	}
	if got := s.Delta(s); !reflect.DeepEqual(got, Stats{}) {
		t.Errorf("Delta(self) != zero: %+v", got)
	}
	rep := m.Observe()
	if !reflect.DeepEqual(rep.Whole, s) {
		t.Errorf("Observe().Whole != Snapshot():\n%+v\n%+v", rep.Whole, s)
	}
	// Steady is the window after the init boundary, so the remainder
	// (Whole - Steady) plus Steady must reconstruct Whole exactly.
	init := rep.Whole.Delta(rep.Steady)
	if init.Accesses+rep.Steady.Accesses != rep.Whole.Accesses {
		t.Errorf("init(%d) + steady(%d) != whole(%d) accesses",
			init.Accesses, rep.Steady.Accesses, rep.Whole.Accesses)
	}
	if init.Walker.Walks+rep.Steady.Walker.Walks != rep.Whole.Walker.Walks {
		t.Errorf("walker walks do not recombine: %d + %d != %d",
			init.Walker.Walks, rep.Steady.Walker.Walks, rep.Whole.Walker.Walks)
	}
}

// TestRegistryAgreesWithSnapshot cross-checks the two observation paths:
// the named counters must read exactly the values the typed Stats carry.
func TestRegistryAgreesWithSnapshot(t *testing.T) {
	m := runSmallMachine(t, guestos.PolicyPTEMagnet)
	s := m.Snapshot()
	c := m.Registry().Snapshot()
	checks := []struct {
		name string
		want uint64
	}{
		{"machine.accesses", s.Accesses},
		{"walker.lookups", s.Walker.Lookups},
		{"walker.walks", s.Walker.Walks},
		{"tlb.lookups", s.TLB.Lookups},
		{"guest.buddy_calls", s.Guest.BuddyCalls},
		{"buddy.guest.splits", s.GuestBuddy.Splits},
		{"buddy.host.splits", s.HostBuddy.Splits},
	}
	for _, ck := range checks {
		got, ok := c.Get(ck.name)
		if !ok {
			t.Errorf("counter %s not registered", ck.name)
			continue
		}
		if got != ck.want {
			t.Errorf("counter %s = %d, want %d", ck.name, got, ck.want)
		}
	}
}
