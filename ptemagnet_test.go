package ptemagnet_test

import (
	"context"
	"errors"
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
		return mem.AllocGroup(ptemagnet.GroupPages, physmem.KindReserved)
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

// TestPaRTFacadeFaultResults reaches each of HandleFault's four results
// through the facade's names.
func TestPaRTFacadeFaultResults(t *testing.T) {
	part, err := ptemagnet.NewPaRT(ptemagnet.DefaultPaRTConfig())
	if err != nil {
		t.Fatal(err)
	}
	mem := physmem.New(16 << 20)
	alloc := func() (ptemagnet.PhysAddr, bool) {
		return mem.AllocGroup(ptemagnet.GroupPages, physmem.KindReserved)
	}
	noMemory := func() (ptemagnet.PhysAddr, bool) { return 0, false }
	const base = ptemagnet.VirtAddr(0x40000000)
	page := func(i int) ptemagnet.VirtAddr { return base + ptemagnet.VirtAddr(i*ptemagnet.PageSize) }
	if _, ok := part.ClaimFromParent(page(0)); ok {
		t.Fatal("a child claimed from a group with no reservation")
	}
	if _, res := part.HandleFault(page(0), alloc); res != ptemagnet.FaultNewReservation {
		t.Errorf("first fault = %v, want %v", res, ptemagnet.FaultNewReservation)
	}
	if _, res := part.HandleFault(page(1), alloc); res != ptemagnet.FaultReservationHit {
		t.Errorf("second fault = %v, want %v", res, ptemagnet.FaultReservationHit)
	}
	if _, ok := part.ClaimFromParent(page(2)); !ok {
		t.Fatal("a child could not claim a reserved page")
	}
	if _, res := part.HandleFault(page(2), alloc); res != ptemagnet.FaultClaimed {
		t.Errorf("fault on the child's page = %v, want %v", res, ptemagnet.FaultClaimed)
	}
	if _, res := part.HandleFault(base+ptemagnet.GroupBytes, noMemory); res != ptemagnet.FaultNoMemory {
		t.Errorf("fault with no group free = %v, want %v", res, ptemagnet.FaultNoMemory)
	}
}

func TestGuestKernelFacade(t *testing.T) {
	k, err := ptemagnet.NewGuestKernel(ptemagnet.GuestConfig{
		MemBytes: 16 << 20,
		Policy:   ptemagnet.PolicyPTEMagnet,
	})
	if err != nil {
		t.Fatal(err)
	}
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

// TestGuestKernelFacadeRejectsBadSize pins that a guest memory size
// physmem cannot model is a *ConfigError naming MemBytes, not a panic.
func TestGuestKernelFacadeRejectsBadSize(t *testing.T) {
	for _, bytes := range []uint64{0, 4097, ptemagnet.PageSize} {
		k, err := ptemagnet.NewGuestKernel(ptemagnet.GuestConfig{MemBytes: bytes})
		var cerr *ptemagnet.ConfigError
		if !errors.As(err, &cerr) || cerr.Field != "MemBytes" || k != nil {
			t.Errorf("NewGuestKernel(MemBytes %d) = %v, %v; want a *ConfigError naming MemBytes", bytes, k, err)
		}
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
