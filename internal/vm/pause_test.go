package vm

import (
	"context"
	"reflect"
	"testing"

	"ptemagnet/internal/guestos"
	"ptemagnet/internal/workload"
)

// buildPausable builds a small colocated machine (pagerank primary, pyaes
// co-runner) for the pause/resume equivalence proofs.
func buildPausable(t *testing.T) *Machine {
	t.Helper()
	m, err := NewHost(smallConfig(guestos.PolicyPTEMagnet))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddTask(workload.NewPagerank(smallGraph(3)), RolePrimary); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 2 << 20, Seed: 7}), RoleCorunner); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStopAtAccessesPauseResume pins the pause/resume contract live
// migration depends on: a run chopped into many StopAtAccesses slices must
// execute access-for-access what one uninterrupted run executes — including
// the co-runner stop latch, which must not re-arm across a resume.
func TestStopAtAccessesPauseResume(t *testing.T) {
	ctx := context.Background()
	whole := buildPausable(t)
	if err := whole.RunWith(ctx, WithStopCorunnersAtInit(true)); err != nil {
		t.Fatal(err)
	}

	sliced := buildPausable(t)
	for sliced.PendingPrimaries() > 0 {
		if err := sliced.RunWith(ctx, WithStopCorunnersAtInit(true), WithStopAtAccesses(sliced.TotalAccesses()+1000)); err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(whole.Snapshot(), sliced.Snapshot()) {
		t.Errorf("sliced run diverged:\nwhole:  %+v\nsliced: %+v", whole.Snapshot(), sliced.Snapshot())
	}
	if !reflect.DeepEqual(whole.Observe(), sliced.Observe()) {
		t.Error("sliced run produced a different report")
	}
}

// TestStopAtAccessesAlreadyReached pins that resuming with an
// already-reached target runs nothing: the pause check fires before the
// first round, so a migration round that requests no progress gets none.
func TestStopAtAccessesAlreadyReached(t *testing.T) {
	m := buildPausable(t)
	if err := m.RunWith(context.Background(), WithStopAtAccesses(500)); err != nil {
		t.Fatal(err)
	}
	at := m.TotalAccesses()
	if at == 0 {
		t.Fatal("paused run executed nothing")
	}
	if m.PendingPrimaries() == 0 {
		t.Fatal("tiny paused run already finished; shrink the slice")
	}
	if err := m.RunWith(context.Background(), WithStopAtAccesses(at)); err != nil {
		t.Fatal(err)
	}
	if got := m.TotalAccesses(); got != at {
		t.Errorf("resume with reached target advanced %d → %d accesses", at, got)
	}
}
