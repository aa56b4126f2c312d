package ptemagnet_test

import (
	"context"
	"testing"

	"ptemagnet"
	"ptemagnet/internal/arch"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/vm"
	"ptemagnet/internal/workload"
)

// TestIntegrationFrameConservation runs a full colocated machine under every
// policy and checks that guest-physical frames are exactly accounted for by
// their owners: used frames == frames the page tables map + their nodes +
// the PaRTs' unused reserved pages + the balloon's frames.
func TestIntegrationFrameConservation(t *testing.T) {
	for _, policy := range []guestos.AllocPolicy{
		guestos.PolicyDefault, guestos.PolicyPTEMagnet, guestos.PolicyCAPaging, guestos.PolicyTHP,
	} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			m, err := vm.NewHost(vm.HostConfig{
				HostMemBytes: 128 << 20,
				Guests:       []vm.GuestConfig{{MemBytes: 64 << 20, Policy: policy, Seed: 5}},
			})
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
			k := m.Guests()[0].Kernel()
			frames := map[arch.PhysAddr]bool{}
			var rss, nodes uint64
			for _, p := range k.Processes() {
				p.PageTable().ForEachMapped(func(_ arch.VirtAddr, pa arch.PhysAddr, _ pagetable.Flags) bool {
					frames[pa] = true
					return true
				})
				rss += p.RSS()
				nodes += uint64(p.PageTable().NodeCount())
			}
			user, reserved := uint64(len(frames)), uint64(k.UnusedReservedPages())
			if held := user + nodes + reserved + k.BalloonPages(); held != k.Memory().UsedFrames() {
				t.Errorf("frames unaccounted: mapped %d + pt %d + reserved %d + balloon %d != used %d",
					user, nodes, reserved, k.BalloonPages(), k.Memory().UsedFrames())
			}
			// RSS across processes matches mapped frames net of COW
			// sharing (no fork here, so exactly).
			if rss != user {
				t.Errorf("sum RSS %d != mapped frames %d", rss, user)
			}
		})
	}
}

// TestIntegrationTranslationCoherence verifies that after a full run every
// mapped guest page translates through the nested machinery to the frame
// the host page table holds for its guest-physical address.
func TestIntegrationTranslationCoherence(t *testing.T) {
	m, err := vm.NewHost(vm.HostConfig{
		HostMemBytes: 128 << 20,
		Guests:       []vm.GuestConfig{{MemBytes: 64 << 20, Policy: guestos.PolicyPTEMagnet, Seed: 9}},
	})
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
	g := m.Guests()[0]
	checked := 0
	proc.PageTable().ForEachMapped(func(va arch.VirtAddr, gpa arch.PhysAddr, _ pagetable.Flags) bool {
		hpaFromHost, ok := g.HostVM().Translate(gpa)
		if !ok {
			// Mapped but never accessed through the walker (possible for
			// pages the workload only faulted): skip.
			return true
		}
		out, hit := g.Walker().TranslateFast(proc.ASID(), va, false)
		if !hit {
			out = g.Walker().TranslateSlow(0, proc.ASID(), proc.PageTable(), va, false)
		}
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
