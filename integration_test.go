package ptemagnet_test

import (
	"context"
	"testing"

	"ptemagnet"
	"ptemagnet/internal/arch"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/physmem"
	"ptemagnet/internal/vm"
	"ptemagnet/internal/workload"
)

// TestIntegrationFrameConservation runs a full colocated machine under every
// policy and checks that guest-physical frames are exactly accounted for:
// used frames == page-table nodes + user pages + live-reservation pages.
func TestIntegrationFrameConservation(t *testing.T) {
	for _, policy := range []guestos.AllocPolicy{
		guestos.PolicyDefault, guestos.PolicyPTEMagnet, guestos.PolicyCAPaging, guestos.PolicyTHP,
	} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			cfg := vm.DefaultConfig()
			cfg.HostMemBytes = 128 << 20
			cfg.GuestMemBytes = 64 << 20
			cfg.Policy = policy
			cfg.Seed = 5
			m, err := vm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.AddTask(workload.NewXZ(workload.SpecConfig{
				FootprintBytes: 6 << 20, Accesses: 30_000, Seed: 5}), vm.RolePrimary); err != nil {
				t.Fatal(err)
			}
			if _, err := m.AddTask(workload.NewObjdet(workload.CorunnerConfig{
				FootprintBytes: 4 << 20, Seed: 6}), vm.RoleCorunner); err != nil {
				t.Fatal(err)
			}
			if err := m.RunWith(context.Background()); err != nil {
				t.Fatal(err)
			}
			mem := m.Guest().Memory()
			user := mem.CountKind(physmem.KindUser)
			pt := mem.CountKind(physmem.KindPageTable)
			reserved := mem.CountKind(physmem.KindReserved)
			if user+pt+reserved != mem.UsedFrames() {
				t.Errorf("frames unaccounted: user %d + pt %d + reserved %d != used %d",
					user, pt, reserved, mem.UsedFrames())
			}
			// RSS across processes matches user frames net of COW sharing
			// (no fork here, so exactly).
			var rss uint64
			for _, p := range m.Guest().Processes() {
				rss += p.RSS()
			}
			if rss != user {
				t.Errorf("sum RSS %d != user frames %d", rss, user)
			}
		})
	}
}

// TestIntegrationTranslationCoherence verifies that after a full run every
// mapped guest page translates through the nested machinery to the frame
// the host page table holds for its guest-physical address.
func TestIntegrationTranslationCoherence(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.HostMemBytes = 128 << 20
	cfg.GuestMemBytes = 64 << 20
	cfg.Policy = guestos.PolicyPTEMagnet
	cfg.Seed = 9
	m, err := vm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	task, err := m.AddTask(workload.NewPagerank(workload.GraphConfig{
		DatasetBytes: 4 << 20, Accesses: 20_000, Seed: 9}), vm.RolePrimary)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	proc := task.Process()
	checked := 0
	proc.PageTable().ForEachMapped(func(va arch.VirtAddr, gpa arch.PhysAddr, _ pagetable.Flags) bool {
		hpaFromHost, ok := m.HostVM().Translate(gpa)
		if !ok {
			// Mapped but never accessed through the walker (possible for
			// pages the workload only faulted): skip.
			return true
		}
		out := m.Walker().Translate(0, proc.ASID(), proc.PageTable(), va, false)
		if !out.Ok {
			t.Errorf("va %#x mapped but walker failed: %+v", uint64(va), out)
			return false
		}
		if out.HPA.PageBase() != hpaFromHost.PageBase() {
			t.Errorf("va %#x: walker %#x != host PT %#x", uint64(va), out.HPA, hpaFromHost)
			return false
		}
		checked++
		return true
	})
	if checked < 500 {
		t.Errorf("only %d pages checked", checked)
	}
}

// TestIntegrationDeterminism: identical scenarios produce identical results
// bit for bit — the property that lets seeds stand in for repeat runs.
func TestIntegrationDeterminism(t *testing.T) {
	run := func() ptemagnet.ScenarioResult {
		r, err := ptemagnet.RunScenarioCtx(context.Background(), ptemagnet.Scenario{
			Benchmark: "omnetpp", Corunners: []string{"objdet", "pyaes"},
			Policy: ptemagnet.PolicyPTEMagnet,
			Scale:  ptemagnet.QuickScale(), Seed: 33,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Task.Cycles != b.Task.Cycles || a.Task.Accesses != b.Task.Accesses {
		t.Errorf("cycles differ: %d vs %d", a.Task.Cycles, b.Task.Cycles)
	}
	if a.Walk != b.Walk {
		t.Errorf("walk stats differ:\n%+v\n%+v", a.Walk, b.Walk)
	}
	if a.Task.Frag.Mean != b.Task.Frag.Mean {
		t.Errorf("fragmentation differs: %f vs %f", a.Task.Frag.Mean, b.Task.Frag.Mean)
	}
}
