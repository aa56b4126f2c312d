package sim

import (
	"context"
	"testing"

	"ptemagnet/internal/guestos"
	"ptemagnet/internal/vm"
)

// TestHostFramesHeldByPageTables pins host-frame conservation in page-table
// terms: after a run, every host frame is free, is frame 0, or is held by a
// live VM's host page table, as a mapped page or as one of its nodes. So
// the page tables alone say who holds each frame, across churn, balloon
// unbacking and a migration's destination.
func TestHostFramesHeldByPageTables(t *testing.T) {
	sc := goldenScale()
	for _, policy := range []guestos.AllocPolicy{guestos.PolicyDefault, guestos.PolicyPTEMagnet} {
		runs := []struct {
			name string
			sp   runSpec
		}{
			{"plain", Scenario{Benchmark: "pagerank", Corunners: []string{"objdet"}, Policy: policy, Scale: sc, Seed: testSeed}.spec()},
			{"churn", MultiScenario{Tenants: multiTenants(2, policy == guestos.PolicyPTEMagnet), Churn: true, Scale: sc, Seed: testSeed}.spec()},
			{"overcommit200", OvercommitScenario{Policy: policy, RatioPct: 200, NumVMs: overcommitNumVMs, Scale: sc, Seed: testSeed}.spec()},
			{"migration", MigrationScenario{Policy: policy, Scale: sc, Seed: testSeed}.spec()},
		}
		for _, r := range runs {
			o, err := run(context.Background(), r.sp)
			if err != nil {
				t.Fatalf("%s/%s: %v", r.name, policy, err)
			}
			checkHostFrames(t, r.name+"/"+policy.String(), o.m)
		}
	}
}

// checkHostFrames requires free + page-table-held + frame 0 = every frame
// of m's host memory.
func checkHostFrames(t *testing.T, name string, m *vm.Machine) {
	t.Helper()
	mem := m.Host().Memory()
	held := uint64(1) // frame 0 is never handed out
	for _, v := range m.Host().VMs() {
		held += v.MappedGuestPages() + uint64(v.PageTable().NodeCount())
	}
	if free := mem.FreeFrames(); free+held != mem.NumFrames() {
		t.Errorf("%s: %d free + %d held by page tables = %d host frames, want %d",
			name, free, held, free+held, mem.NumFrames())
	}
}
