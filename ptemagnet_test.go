package ptemagnet_test

import (
	"context"
	"testing"

	"ptemagnet"
	"ptemagnet/internal/physmem"
)

func TestGeometryReexports(t *testing.T) {
	if ptemagnet.PageSize != 4096 || ptemagnet.GroupPages != 8 || ptemagnet.GroupBytes != 32768 {
		t.Error("geometry constants wrong")
	}
}

func TestPaRTFacade(t *testing.T) {
	part, err := ptemagnet.NewPaRT(ptemagnet.DefaultPaRTConfig())
	if err != nil {
		t.Fatal(err)
	}
	mem := physmem.New(16 << 20)
	alloc := func() (ptemagnet.PhysAddr, bool) {
		return mem.AllocGroup(ptemagnet.GroupPages, physmem.KindReserved, physmem.Own(0, 1))
	}
	pa, res := part.HandleFault(0x40000000, alloc)
	if res != ptemagnet.FaultNewReservation || pa == 0 {
		t.Fatalf("HandleFault = %#x, %v", uint64(pa), res)
	}
	if res.String() != "new-reservation" {
		t.Errorf("String = %q", res.String())
	}
	if part.Live() != 1 || part.UnusedPages() != 7 {
		t.Errorf("live=%d unused=%d", part.Live(), part.UnusedPages())
	}
}

func TestGuestKernelFacade(t *testing.T) {
	k := ptemagnet.NewGuestKernel(ptemagnet.GuestConfig{
		MemBytes: 16 << 20,
		Policy:   ptemagnet.PolicyPTEMagnet,
	})
	p, err := k.Spawn("demo", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Touch(va); err != nil {
		t.Fatal(err)
	}
	if p.RSS() != 1 {
		t.Errorf("RSS = %d", p.RSS())
	}
}

func TestMachineFacadeSmoke(t *testing.T) {
	m, err := ptemagnet.NewHostMachine(ptemagnet.HostMachineConfig{
		HostMemBytes: 64 << 20,
		Guests:       []ptemagnet.TenantConfig{{MemBytes: 32 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := ptemagnet.NewGCC(ptemagnet.SpecConfig{FootprintBytes: 2 << 20, Accesses: 5000, Seed: 1})
	if _, err := m.AddTask(prog, ptemagnet.RolePrimary); err != nil {
		t.Fatal(err)
	}
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(m.Observe().Tasks) != 1 {
		t.Fatal("no report")
	}
}

func TestScenarioFacadeSmoke(t *testing.T) {
	res, err := ptemagnet.RunScenarioCtx(context.Background(), ptemagnet.Scenario{
		Benchmark: "xz",
		Policy:    ptemagnet.PolicyPTEMagnet,
		Scale:     ptemagnet.QuickScale(),
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Task.Frag.Mean == 0 {
		t.Error("no fragmentation measured")
	}
	if res.Walk.MemServed(ptemagnet.DimHost) == 0 && res.Walk.MemServed(ptemagnet.DimGuest) == 0 {
		t.Log("note: no PT memory traffic at this scale (acceptable)")
	}
}
