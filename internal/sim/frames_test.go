package sim

import (
	"context"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/vm"
)

// TestHostFramesHeldByPageTables pins host-frame conservation in page-table
// terms: after a run, every host frame is free, is frame 0, or is held by a
// live VM's host page table, as a mapped page or as one of its nodes. So
// the page tables alone say who holds each frame, across churn, balloon
// unbacking and a migration's destination. The guest side holds in its
// owners' terms too: every frame of a live guest is free, is frame 0, or
// is held by a process page table, a PaRT reservation or the balloon.
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
			checkGuestFrames(t, r.name+"/"+policy.String(), o.m)
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

// checkGuestFrames requires, for every live guest of m, free + held +
// frame 0 = every frame of its guest memory, where a frame is held by a
// live process's page table (a mapped page, counted once however many
// processes share it, or a node), by a PaRT reservation as an unused
// reserved page, or by the balloon.
func checkGuestFrames(t *testing.T, name string, m *vm.Machine) {
	t.Helper()
	for _, g := range m.Guests() {
		if !g.Alive() {
			continue
		}
		k := g.Kernel()
		mapped := map[arch.PhysAddr]bool{}
		held := uint64(1) + uint64(k.UnusedReservedPages()) + k.BalloonPages()
		for _, p := range k.Processes() {
			p.PageTable().ForEachMapped(func(_ arch.VirtAddr, pa arch.PhysAddr, _ pagetable.Flags) bool {
				mapped[pa] = true
				return true
			})
			held += uint64(p.PageTable().NodeCount())
		}
		held += uint64(len(mapped))
		if mem := k.Memory(); mem.FreeFrames()+held != mem.NumFrames() {
			t.Errorf("%s: guest %d: %d free + %d held by owners = %d frames, want %d",
				name, g.Index(), mem.FreeFrames(), held, mem.FreeFrames()+held, mem.NumFrames())
		}
	}
}
