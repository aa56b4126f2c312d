package guestos

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/physmem"
)

func defaultKernel(t *testing.T) *Kernel {
	t.Helper()
	return NewKernel(Config{MemBytes: 64 << 20, Policy: PolicyDefault, Seed: 1})
}

func magnetKernel(t *testing.T) *Kernel {
	t.Helper()
	return NewKernel(Config{MemBytes: 64 << 20, Policy: PolicyPTEMagnet, Seed: 1})
}

func mustSpawn(t *testing.T, k *Kernel, name string) *Process {
	t.Helper()
	p, err := k.Spawn(name, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustMmap(t *testing.T, p *Process, bytes uint64) arch.VirtAddr {
	t.Helper()
	va, err := p.Mmap(bytes)
	if err != nil {
		t.Fatal(err)
	}
	return va
}

func TestMmapIsEager(t *testing.T) {
	k := defaultKernel(t)
	p := mustSpawn(t, k, "a")
	used := k.Memory().UsedFrames()
	va := mustMmap(t, p, 1<<20)
	if k.Memory().UsedFrames() != used {
		t.Error("mmap allocated physical memory eagerly")
	}
	if uint64(va)%arch.GroupBytes != 0 {
		t.Errorf("mmap base %#x not group aligned", uint64(va))
	}
	if p.RSS() != 0 {
		t.Errorf("RSS = %d before any fault", p.RSS())
	}
}

func TestFaultOutsideVMA(t *testing.T) {
	k := defaultKernel(t)
	p := mustSpawn(t, k, "a")
	if _, err := p.HandlePageFault(0x1234, false); !errors.Is(err, ErrNoVMA) {
		t.Errorf("err = %v, want ErrNoVMA", err)
	}
}

func TestDefaultFaultAllocatesOnePage(t *testing.T) {
	k := defaultKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	kind, err := p.HandlePageFault(va, false)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FaultDefault {
		t.Errorf("kind = %v", kind)
	}
	if p.RSS() != 1 {
		t.Errorf("RSS = %d", p.RSS())
	}
	if _, ok := p.Translate(va); !ok {
		t.Fatal("page not mapped after fault")
	}
	// The one data frame is held by the page table.
	checkInvariants(t, k, 1)
	// Second fault on the same page is a no-op.
	kind, err = p.HandlePageFault(va+100, false)
	if err != nil || kind != FaultAlreadyMapped {
		t.Errorf("refault: kind=%v err=%v", kind, err)
	}
}

func TestMagnetFaultReservesGroup(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	kind, err := p.HandlePageFault(va, false)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FaultMagnetNew {
		t.Fatalf("kind = %v", kind)
	}
	if k.UnusedReservedPages() != 7 || p.RSS() != 1 {
		t.Errorf("reserved frames = %d, mapped %d; want 7 and 1", k.UnusedReservedPages(), p.RSS())
	}
	checkInvariants(t, k, 1)
	// Remaining group pages are reservation hits, physically contiguous.
	base, _ := p.Translate(va)
	for i := 1; i < 8; i++ {
		kind, err := p.HandlePageFault(va+arch.VirtAddr(i*arch.PageSize), false)
		if err != nil {
			t.Fatal(err)
		}
		if kind != FaultMagnetHit {
			t.Errorf("page %d: kind = %v", i, kind)
		}
		pa, _ := p.Translate(va + arch.VirtAddr(i*arch.PageSize))
		if pa != base+arch.PhysAddr(i*arch.PageSize) {
			t.Errorf("page %d at %#x, want contiguous from %#x", i, pa, base)
		}
	}
	if k.UnusedReservedPages() != 0 {
		t.Error("reserved frames remain after filling group")
	}
	s := k.Snapshot()
	if s.Faults[FaultMagnetNew] != 1 || s.Faults[FaultMagnetHit] != 7 {
		t.Errorf("fault stats = %v", s.Faults)
	}
	if s.BuddyCalls != 1 {
		t.Errorf("BuddyCalls = %d, want 1 (one group alloc for 8 faults)", s.BuddyCalls)
	}
}

func TestMagnetGuaranteesContiguityUnderInterleaving(t *testing.T) {
	// Two colocated processes fault alternately — the scenario that
	// fragments the default allocator. With PTEMagnet each process's
	// groups stay physically contiguous.
	k := magnetKernel(t)
	a := mustSpawn(t, k, "a")
	b := mustSpawn(t, k, "b")
	vaA := mustMmap(t, a, 1<<20)
	vaB := mustMmap(t, b, 1<<20)
	for i := 0; i < 64; i++ {
		if _, err := a.HandlePageFault(vaA+arch.VirtAddr(i*arch.PageSize), false); err != nil {
			t.Fatal(err)
		}
		if _, err := b.HandlePageFault(vaB+arch.VirtAddr(i*arch.PageSize), false); err != nil {
			t.Fatal(err)
		}
	}
	for _, pr := range []struct {
		p  *Process
		va arch.VirtAddr
	}{{a, vaA}, {b, vaB}} {
		for g := 0; g < 8; g++ {
			base, _ := pr.p.Translate(pr.va + arch.VirtAddr(g*arch.GroupBytes))
			if uint64(base)%arch.GroupBytes != 0 {
				t.Errorf("%s group %d base %#x misaligned", pr.p.Name(), g, uint64(base))
			}
			for i := 1; i < 8; i++ {
				pa, _ := pr.p.Translate(pr.va + arch.VirtAddr(g*arch.GroupBytes+i*arch.PageSize))
				if pa != base+arch.PhysAddr(i*arch.PageSize) {
					t.Errorf("%s group %d page %d not contiguous", pr.p.Name(), g, i)
				}
			}
		}
	}
}

func TestDefaultFragmentsUnderInterleaving(t *testing.T) {
	// Sanity-check the phenomenon the paper fixes: with the default
	// policy and interleaved faults, groups are NOT contiguous.
	k := defaultKernel(t)
	a := mustSpawn(t, k, "a")
	b := mustSpawn(t, k, "b")
	vaA := mustMmap(t, a, 1<<20)
	vaB := mustMmap(t, b, 1<<20)
	for i := 0; i < 64; i++ {
		a.HandlePageFault(vaA+arch.VirtAddr(i*arch.PageSize), false)
		b.HandlePageFault(vaB+arch.VirtAddr(i*arch.PageSize), false)
	}
	contiguousGroups := 0
	for g := 0; g < 8; g++ {
		base, _ := a.Translate(vaA + arch.VirtAddr(g*arch.GroupBytes))
		contiguous := true
		for i := 1; i < 8; i++ {
			pa, _ := a.Translate(vaA + arch.VirtAddr(g*arch.GroupBytes+i*arch.PageSize))
			if pa != base+arch.PhysAddr(i*arch.PageSize) {
				contiguous = false
			}
		}
		if contiguous {
			contiguousGroups++
		}
	}
	if contiguousGroups > 2 {
		t.Errorf("%d/8 groups contiguous under interleaved default allocation; fragmentation not reproduced", contiguousGroups)
	}
}

func TestEnableThreshold(t *testing.T) {
	k := NewKernel(Config{
		MemBytes:             64 << 20,
		Policy:               PolicyPTEMagnet,
		EnableThresholdBytes: 16 << 20,
		Seed:                 1,
	})
	big, _ := k.Spawn("big", 32<<20)
	small, _ := k.Spawn("small", 1<<20)
	if big.Part() == nil {
		t.Error("big process did not get PTEMagnet")
	}
	if small.Part() != nil {
		t.Error("small process got PTEMagnet below threshold")
	}
	va := mustMmap(t, small, 1<<20)
	kind, err := small.HandlePageFault(va, false)
	if err != nil || kind != FaultDefault {
		t.Errorf("small process fault: kind=%v err=%v", kind, err)
	}
}

func TestFreeReturnsPageToReservation(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	p.HandlePageFault(va, false)
	p.HandlePageFault(va+arch.PageSize, false)
	pa0, _ := p.Translate(va)
	used := k.Memory().UsedFrames()
	if err := p.Free(va, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Translate(va); ok {
		t.Error("page still mapped after free")
	}
	// The reservation holds the frame: it stays out of the buddy.
	if k.UnusedReservedPages() != 7 || k.Memory().UsedFrames() != used {
		t.Errorf("%d reserved pages, %d used frames after the free; want 7 and %d",
			k.UnusedReservedPages(), k.Memory().UsedFrames(), used)
	}
	// Refault gets the same frame back.
	kind, _ := p.HandlePageFault(va, false)
	if kind != FaultMagnetHit {
		t.Errorf("refault kind = %v", kind)
	}
	pa, _ := p.Translate(va)
	if pa != pa0 {
		t.Errorf("refault pa = %#x, want %#x", pa, pa0)
	}
}

func TestFreeLastPageDissolvesReservation(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	p.HandlePageFault(va, false)
	used := k.Memory().UsedFrames()
	if err := p.Free(va, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	// The whole 8-page group returns to the buddy allocator.
	if got := used - k.Memory().UsedFrames(); got != 8 {
		t.Errorf("free released %d frames, want 8", got)
	}
	if p.Part().Live() != 0 {
		t.Errorf("live reservations = %d", p.Part().Live())
	}
}

func TestFreeOfFullyMappedGroupUsesDefaultPath(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	for i := 0; i < 8; i++ {
		p.HandlePageFault(va+arch.VirtAddr(i*arch.PageSize), false)
	}
	used := k.Memory().UsedFrames()
	p.Free(va, arch.PageSize)
	if got := used - k.Memory().UsedFrames(); got != 1 {
		t.Errorf("free of one page released %d frames", got)
	}
}

func TestMunmap(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	for i := 0; i < 32; i++ {
		p.HandlePageFault(va+arch.VirtAddr(i*arch.PageSize), false)
	}
	if err := p.Munmap(va); err != nil {
		t.Fatal(err)
	}
	if k.Memory().UsedFrames() != uint64(p.PageTable().NodeCount()) {
		t.Errorf("frames remain after munmap: used=%d ptnodes=%d",
			k.Memory().UsedFrames(), p.PageTable().NodeCount())
	}
	if _, err := p.HandlePageFault(va, false); !errors.Is(err, ErrNoVMA) {
		t.Errorf("fault after munmap: %v", err)
	}
	if err := p.Munmap(va); !errors.Is(err, ErrBadRange) {
		t.Errorf("double munmap: %v", err)
	}
}

// TestShootdownShapes pins the TLB call each mapping change makes, in
// order: a free shoots down its whole span in one range, never split
// (tlb.TLB.InvalidateRange says why), a fork the parent's ASID, a COW
// break and a swap-out one page each, and an munmap its region in one
// range.
func TestShootdownShapes(t *testing.T) {
	k := defaultKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 16*arch.PageSize)
	page := func(i int) arch.VirtAddr { return va + arch.VirtAddr(i*arch.PageSize) }
	for i := 0; i < 16; i++ {
		if _, err := p.HandlePageFault(page(i), true); err != nil {
			t.Fatal(err)
		}
	}
	tlb := &recordingTLB{}
	k.SetTLB(tlb)
	if err := p.Free(page(1)+100, 5*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fork("child"); err != nil {
		t.Fatal(err)
	}
	if kind, err := p.HandlePageFault(page(8), true); err != nil || kind != FaultCOW {
		t.Fatalf("write after fork resolved as %v (%v), want %v", kind, err, FaultCOW)
	}
	if !p.SwapOut(page(9)) {
		t.Fatal("nothing swapped out")
	}
	if err := p.Munmap(va); err != nil {
		t.Fatal(err)
	}
	asid := p.ASID()
	want := []shootdown{
		{"range", asid, page(1), page(7)},
		{op: "asid", asid: asid},
		{"range", asid, page(8), page(9)},
		{"range", asid, page(9), page(10)},
		{"range", asid, va, page(16)},
	}
	if !reflect.DeepEqual(tlb.calls, want) {
		t.Errorf("shootdowns\n%+v\nwant\n%+v", tlb.calls, want)
	}
}

func TestReclaimDaemonUnderPressure(t *testing.T) {
	// Small memory, low watermark: reservations must be reclaimed instead
	// of the kernel running out.
	k := NewKernel(Config{
		MemBytes:         4 << 20, // 1024 frames
		Policy:           PolicyPTEMagnet,
		ReclaimWatermark: 0.5,
		Seed:             7,
	})
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 3<<20)
	// Touch one page per group: worst-case 7 unused pages per group.
	pages := (3 << 20) / arch.GroupBytes
	for i := 0; i < pages; i++ {
		if _, err := p.HandlePageFault(va+arch.VirtAddr(i*arch.GroupBytes), false); err != nil {
			t.Fatalf("fault %d: %v", i, err)
		}
	}
	s := k.Snapshot()
	if s.ReclaimedReservations == 0 {
		t.Error("no reservations reclaimed under pressure")
	}
	if k.UnusedReservedPages() > int(0.6*float64(k.Memory().NumFrames())) {
		t.Errorf("unused reserved pages = %d, pressure not relieved", k.UnusedReservedPages())
	}
}

// TestFailedGroupAllocReclaimsOutsideThePaRT: when a fault's group
// allocation fails, the reclaim daemon runs after the PaRT call returns,
// not inside its allocation callback. Inside, it would walk the faulting
// process's own table while the fault holds one of its leaf locks.
func TestFailedGroupAllocReclaimsOutsideThePaRT(t *testing.T) {
	k := NewKernel(Config{MemBytes: 4 << 20, Policy: PolicyPTEMagnet, Seed: 1})
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	if _, err := p.HandlePageFault(va, false); err != nil {
		t.Fatal(err)
	}
	if p.Part().Live() != 1 {
		t.Fatalf("live reservations = %d, want 1", p.Part().Live())
	}
	// Take every free frame: memory sits above the watermark with no free
	// group, so the next group's allocation fails and triggers reclaim.
	for {
		if _, ok := k.Memory().AllocFrame(physmem.KindKernel); !ok {
			break
		}
	}
	before := k.Snapshot()
	// The next group shares the first one's PaRT leaf node.
	type result struct {
		kind FaultKind
		err  error
	}
	done := make(chan result, 1)
	go func() {
		kind, err := p.HandlePageFault(va+arch.GroupBytes, false)
		done <- result{kind, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.kind != FaultDefault {
			t.Fatalf("fault = %v, %v; want a default-path fault", r.kind, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fault never returned: reclaim ran under the PaRT leaf lock")
	}
	if p.Part().Live() != 0 || k.Snapshot().ReclaimedReservations != 1 {
		t.Errorf("live reservations %d, reclaimed %d; want the first group reclaimed",
			p.Part().Live(), k.Snapshot().ReclaimedReservations)
	}
	// One group attempt and one single page, one fallback; reclaim runs
	// once after the failed group and once at the page's pressure check.
	d := k.Snapshot().Delta(before)
	if d.BuddyCalls != 2 || d.ReclaimRuns != 2 || d.OOMFallbacks != 1 {
		t.Errorf("buddy calls %d, reclaim runs %d, fallbacks %d; want 2, 2, 1",
			d.BuddyCalls, d.ReclaimRuns, d.OOMFallbacks)
	}
}

func TestOOMFallbackToDefaultPath(t *testing.T) {
	// Exhaust memory so group allocation fails but single pages fit.
	k := NewKernel(Config{
		MemBytes:         1 << 20, // 256 frames
		Policy:           PolicyPTEMagnet,
		ReclaimWatermark: 2.0, // never reclaim: forces the fallback
		Seed:             1,
	})
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 2<<20)
	var err error
	i := 0
	for ; i < 512; i++ {
		if _, err = p.HandlePageFault(va+arch.VirtAddr(i*arch.PageSize), false); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected eventual OOM, got %v after %d pages", err, i)
	}
	if k.Snapshot().OOMFallbacks == 0 {
		t.Error("no fallbacks to the default path before OOM")
	}
	// Most of memory must have been usable (fallback worked): at least
	// 200 of 255 frames.
	if i < 200 {
		t.Errorf("only %d pages mapped before OOM", i)
	}
}

func TestForkCOWSharing(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "parent")
	va := mustMmap(t, p, 1<<20)
	for i := 0; i < 8; i++ {
		p.HandlePageFault(va+arch.VirtAddr(i*arch.PageSize), false)
	}
	used := k.Memory().UsedFrames()
	child, err := p.Fork("child")
	if err != nil {
		t.Fatal(err)
	}
	// Fork allocates page-table nodes for the child but no user frames.
	if got, nodes := k.Memory().UsedFrames(), uint64(child.PageTable().NodeCount()); got != used+nodes {
		t.Errorf("fork took %d frames, want only the child's %d page-table nodes", got-used, nodes)
	}
	if child.RSS() != p.RSS() {
		t.Errorf("child RSS = %d, parent %d", child.RSS(), p.RSS())
	}
	// Shared pages translate to the same frames.
	pPA, _ := p.Translate(va)
	cPA, _ := child.Translate(va)
	if pPA != cPA {
		t.Errorf("parent %#x child %#x not shared", pPA, cPA)
	}
	// A read fault is a no-op; a write fault copies.
	kind, err := child.HandlePageFault(va, true)
	if err != nil || kind != FaultCOW {
		t.Fatalf("COW fault: kind=%v err=%v", kind, err)
	}
	cPA2, _ := child.Translate(va)
	if cPA2 == pPA {
		t.Error("write did not copy the frame")
	}
	// Parent writing now finds itself the only sharer: no copy.
	p.HandlePageFault(va, true)
	pPA2, _ := p.Translate(va)
	if pPA2 != pPA {
		t.Error("parent copied a frame it solely owns")
	}
}

func TestForkChildClaimsFromParentReservation(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "parent")
	va := mustMmap(t, p, 1<<20)
	// Parent maps pages 0-2 of a group; 3-7 stay reserved.
	for i := 0; i < 3; i++ {
		p.HandlePageFault(va+arch.VirtAddr(i*arch.PageSize), false)
	}
	base, _ := p.Translate(va)
	child, err := p.Fork("child")
	if err != nil {
		t.Fatal(err)
	}
	// Child faults page 3 → claimed from the parent's reservation, so it
	// is physically contiguous with the parent's pages.
	kind, err := child.HandlePageFault(va+3*arch.PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FaultParentClaim {
		t.Fatalf("kind = %v", kind)
	}
	cPA, _ := child.Translate(va + 3*arch.PageSize)
	if cPA != base+3*arch.PageSize {
		t.Errorf("child page at %#x, want %#x", cPA, base+3*arch.PageSize)
	}
	// Parent faulting the same page must NOT get the child's frame.
	kind, err = p.HandlePageFault(va+3*arch.PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if kind == FaultMagnetHit || kind == FaultParentClaim {
		t.Errorf("parent fault kind = %v; frame collision with child", kind)
	}
	pPA, _ := p.Translate(va + 3*arch.PageSize)
	if pPA == cPA {
		t.Error("parent and child share a non-COW frame")
	}
}

func TestFreeSharedFrameDissolvesReservation(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "parent")
	va := mustMmap(t, p, 1<<20)
	p.HandlePageFault(va, false) // group live, page 0 mapped
	child, err := p.Fork("child")
	if err != nil {
		t.Fatal(err)
	}
	// Parent frees the shared page: the reservation must dissolve and the
	// frame must survive for the child.
	cPA, _ := child.Translate(va)
	if err := p.Free(va, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if p.Part().Live() != 0 {
		t.Error("reservation survived freeing of a shared page")
	}
	if pa, ok := child.Translate(va); !ok || pa != cPA {
		t.Errorf("child maps %#x (%v) after parent free, want %#x", uint64(pa), ok, uint64(cPA))
	}
	checkInvariants(t, k, 0)
	// Child still reads its page; freeing from the child now releases it.
	if _, err := child.HandlePageFault(va, false); err != nil {
		t.Fatal(err)
	}
	used := k.Memory().UsedFrames()
	child.Free(va, arch.PageSize)
	if k.Memory().UsedFrames() != used-1 {
		t.Error("child's free did not release the frame")
	}
}

func TestExitReleasesEverything(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	for i := 0; i < 20; i++ {
		p.HandlePageFault(va+arch.VirtAddr(i*arch.PageSize), false)
	}
	p.Exit()
	if k.Memory().UsedFrames() != 0 {
		t.Errorf("%d frames leak after exit", k.Memory().UsedFrames())
	}
	if len(k.Processes()) != 0 {
		t.Error("dead process still listed")
	}
	p.Exit() // idempotent
}

func TestExitWithForkKeepsSharedFrames(t *testing.T) {
	k := defaultKernel(t)
	p := mustSpawn(t, k, "parent")
	va := mustMmap(t, p, 1<<20)
	for i := 0; i < 4; i++ {
		p.HandlePageFault(va+arch.VirtAddr(i*arch.PageSize), false)
	}
	child, _ := p.Fork("child")
	ptNodes := uint64(p.PageTable().NodeCount())
	p.Exit()
	_ = ptNodes
	// Child's pages must still be there.
	for i := 0; i < 4; i++ {
		if _, ok := child.Translate(va + arch.VirtAddr(i*arch.PageSize)); !ok {
			t.Errorf("child lost page %d after parent exit", i)
		}
	}
	child.Exit()
	if k.Memory().UsedFrames() != 0 {
		t.Errorf("%d frames leak after both exits", k.Memory().UsedFrames())
	}
}

// TestFailedForkExitsChild forks with one free frame left: Spawn takes it
// for the child's root node, and the copy loop finds none for the next
// node. The child must not outlive the failed fork.
func TestFailedForkExitsChild(t *testing.T) {
	k := NewKernel(Config{MemBytes: 4 << 20, Policy: PolicyDefault, Seed: 1})
	parent := mustSpawn(t, k, "parent")
	va := mustMmap(t, parent, 1<<20)
	if _, err := parent.Touch(va); err != nil {
		t.Fatal(err)
	}
	var held []arch.PhysAddr
	for {
		pa, ok := k.Memory().AllocFrame(physmem.KindKernel)
		if !ok {
			break
		}
		held = append(held, pa)
	}
	k.Memory().FreeBlock(held[len(held)-1])
	held = held[:len(held)-1]
	if child, err := parent.Fork("child"); err == nil {
		t.Fatalf("fork with one free frame = %v, want an out-of-memory error", child)
	}
	if procs := k.Processes(); len(procs) != 1 || procs[0] != parent {
		t.Errorf("%d live processes after the failed fork, want only the parent", len(procs))
	}
	for _, pa := range held {
		k.Memory().FreeBlock(pa)
	}
	parent.Exit()
	if used := k.Memory().UsedFrames(); used != 0 {
		t.Errorf("%d frames leak after the parent exits", used)
	}
}

func TestSparseAdversaryReservationWaste(t *testing.T) {
	// §6.2's adversarial pattern: touch only every 8th page. Unused
	// reserved pages reach 7× the footprint.
	k := magnetKernel(t)
	p := mustSpawn(t, k, "sparse")
	va := mustMmap(t, p, 8<<20)
	groups := (8 << 20) / arch.GroupBytes
	for i := 0; i < groups; i++ {
		p.HandlePageFault(va+arch.VirtAddr(i*arch.GroupBytes), false)
	}
	if got, want := k.UnusedReservedPages(), 7*groups; got != want {
		t.Errorf("unused reserved pages = %d, want %d", got, want)
	}
}

func TestPolicyAndFaultKindStrings(t *testing.T) {
	if PolicyDefault.String() != "default" || PolicyPTEMagnet.String() != "ptemagnet" {
		t.Error("policy strings wrong")
	}
	for k := FaultKind(0); k < NumFaultKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for p := PolicyDefault; p <= PolicyTHP; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"", "PTEMagnet", "bogus", "AllocPolicy(4)"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) accepted an unknown name", name)
		}
	}
}

// TestSpawnRejectsPIDBeyondASIDWidth pins the PID limit behind the TLB's
// packed (ASID, VPN) keys: the last PID that fits spawns, the next fails
// with ErrPIDSpace and consumes nothing.
func TestSpawnRejectsPIDBeyondASIDWidth(t *testing.T) {
	k := defaultKernel(t)
	k.next = 1<<arch.ASIDBits - 1
	p, err := k.Spawn("last", 0)
	if err != nil {
		t.Fatalf("Spawn at the last PID: %v", err)
	}
	if p.ASID() != 1<<arch.ASIDBits-1 {
		t.Errorf("ASID = %d, want %d", p.ASID(), 1<<arch.ASIDBits-1)
	}
	for i := 0; i < 2; i++ {
		if _, err := k.Spawn("over", 0); !errors.Is(err, ErrPIDSpace) {
			t.Fatalf("Spawn past the ASID width: %v, want ErrPIDSpace", err)
		}
	}
	if len(k.Processes()) != 1 {
		t.Errorf("%d live processes, want 1", len(k.Processes()))
	}
}

func TestMmapValidation(t *testing.T) {
	k := defaultKernel(t)
	p := mustSpawn(t, k, "a")
	if _, err := p.Mmap(0); !errors.Is(err, ErrBadRange) {
		t.Errorf("Mmap(0): %v", err)
	}
	// Sizes whose page rounding wraps, or that exceed the VA space.
	for _, bytes := range []uint64{^uint64(0), ^uint64(0) - arch.PageSize + 2, 1<<arch.VABits + 1} {
		if va, err := p.Mmap(bytes); !errors.Is(err, ErrBadRange) {
			t.Errorf("Mmap(%#x) = %#x, %v; want ErrBadRange", bytes, uint64(va), err)
		}
	}
	if len(p.vmas) != 0 {
		t.Errorf("rejected mmaps recorded %d VMAs", len(p.vmas))
	}
	if err := p.Free(0x1000, 0); !errors.Is(err, ErrBadRange) {
		t.Errorf("Free(len 0): %v", err)
	}
}

func caKernel(t *testing.T) *Kernel {
	t.Helper()
	return NewKernel(Config{MemBytes: 64 << 20, Policy: PolicyCAPaging, Seed: 1})
}

func TestCAPagingSoloRestoresContiguity(t *testing.T) {
	k := caKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	// Fault pages in a scattered order; CA paging should still place
	// virtual neighbours adjacently when frames are free.
	// The very first faults interleave with page-table-node allocations,
	// so CA placement may miss; once the PT path exists, sequential
	// faults must ride adjacent frames.
	kind0, err := p.HandlePageFault(va, false)
	if err != nil || kind0 != FaultDefault {
		t.Fatalf("first fault: %v %v", kind0, err)
	}
	hits := 0
	for i := 1; i < 32; i++ {
		kind, err := p.HandlePageFault(va+arch.VirtAddr(i*arch.PageSize), false)
		if err != nil {
			t.Fatal(err)
		}
		if kind == FaultCAHit {
			hits++
			prev, _ := p.Translate(va + arch.VirtAddr((i-1)*arch.PageSize))
			cur, _ := p.Translate(va + arch.VirtAddr(i*arch.PageSize))
			if cur != prev+arch.PageSize {
				t.Fatalf("page %d claims ca-hit but is not adjacent: %#x after %#x", i, cur, prev)
			}
		}
	}
	if hits < 28 {
		t.Errorf("only %d/31 sequential solo faults were CA hits", hits)
	}
	// Backwards adjacency: evict a page whose successor stays mapped;
	// the refault must reclaim the frame below the successor's.
	paNext, _ := p.Translate(va + 5*arch.PageSize)
	// Evict pages 3 and 4 so the refault of page 4 has no mapped
	// predecessor — only the backward rule (next page's frame minus one)
	// can serve it.
	if !p.SwapOut(va+4*arch.PageSize) || !p.SwapOut(va+3*arch.PageSize) {
		t.Fatal("SwapOut failed")
	}
	kind2, err := p.HandlePageFault(va+4*arch.PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if kind2 != FaultCAHit {
		t.Errorf("backward fill kind = %v", kind2)
	}
	paRefault, _ := p.Translate(va + 4*arch.PageSize)
	if paRefault != paNext-arch.PageSize {
		t.Errorf("backward fill not adjacent: %#x vs %#x", paRefault, paNext)
	}
}

func TestCAPagingDegradesUnderColocation(t *testing.T) {
	// Two processes alternate faults: the adjacent frame is usually gone
	// by the time the neighbour faults — the paper's argument for eager
	// reservation over best effort.
	k := caKernel(t)
	a := mustSpawn(t, k, "a")
	b := mustSpawn(t, k, "b")
	vaA := mustMmap(t, a, 1<<20)
	vaB := mustMmap(t, b, 1<<20)
	hits, total := 0, 0
	for i := 0; i < 128; i++ {
		kindA, err := a.HandlePageFault(vaA+arch.VirtAddr(i*arch.PageSize), false)
		if err != nil {
			t.Fatal(err)
		}
		// The co-runner faults on 2 of every 3 iterations — enough
		// interference to steal most adjacent frames, with enough gaps
		// that CA paging occasionally still wins.
		if i%3 != 0 {
			if _, err := b.HandlePageFault(vaB+arch.VirtAddr(i*arch.PageSize), false); err != nil {
				t.Fatal(err)
			}
		}
		if i > 0 {
			total++
			if kindA == FaultCAHit {
				hits++
			}
		}
	}
	if hits > total*3/4 {
		t.Errorf("CA paging hit %d/%d under colocation; baseline unrealistically strong", hits, total)
	}
	if hits == 0 {
		t.Error("CA paging never hit at all")
	}
	// Contrast: PTEMagnet under the identical interference keeps every
	// group fully contiguous (verified in
	// TestMagnetGuaranteesContiguityUnderInterleaving); CA paging cannot.
	broken := 0
	for g := 0; g < 16; g++ {
		base, _ := a.Translate(vaA + arch.VirtAddr(g*arch.GroupBytes))
		for i := 1; i < 8; i++ {
			pa, _ := a.Translate(vaA + arch.VirtAddr(g*arch.GroupBytes+i*arch.PageSize))
			if pa != base+arch.PhysAddr(i*arch.PageSize) {
				broken++
				break
			}
		}
	}
	if broken == 0 {
		t.Error("CA paging kept every group contiguous under colocation; interference not modelled")
	}
}

func TestSwapOutDissolvesReservation(t *testing.T) {
	k := magnetKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	p.HandlePageFault(va, false)
	p.HandlePageFault(va+arch.PageSize, false)
	if p.Part().Live() != 1 {
		t.Fatal("no live reservation")
	}
	used := k.Memory().UsedFrames()
	if !p.SwapOut(va) {
		t.Fatal("SwapOut failed")
	}
	if p.Part().Live() != 0 {
		t.Error("reservation survived SwapOut (§4.4 requires dissolution)")
	}
	// Evicted frame + 6 reserved frames released; page 1 stays mapped.
	if got := used - k.Memory().UsedFrames(); got != 7 {
		t.Errorf("SwapOut released %d frames, want 7", got)
	}
	if _, ok := p.Translate(va); ok {
		t.Error("page still mapped after SwapOut")
	}
	if _, ok := p.Translate(va + arch.PageSize); !ok {
		t.Error("sibling page lost its mapping")
	}
	// Refault goes the default path (group is partially mapped).
	kind, err := p.HandlePageFault(va, false)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FaultDefault {
		t.Errorf("refault kind = %v, want default", kind)
	}
	if !p.SwapOut(va) {
		t.Error("second SwapOut failed")
	}
	if p.SwapOut(va) {
		t.Error("SwapOut of unmapped page succeeded")
	}
}

func TestSwapOutDefaultPolicy(t *testing.T) {
	k := defaultKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	p.HandlePageFault(va, false)
	used := k.Memory().UsedFrames()
	if !p.SwapOut(va) {
		t.Fatal("SwapOut failed")
	}
	if used-k.Memory().UsedFrames() != 1 {
		t.Error("default-policy SwapOut should release exactly one frame")
	}
}

// starve takes every free frame of k's memory as a kernel frame, then frees
// block, a block the caller took beforehand, so block is all the memory
// left free (arch.NoPhysAddr leaves none).
func starve(k *Kernel, block arch.PhysAddr) {
	for {
		if _, ok := k.Memory().AllocFrame(physmem.KindKernel); !ok {
			break
		}
	}
	if block != arch.NoPhysAddr {
		k.Memory().FreeBlock(block)
	}
}

// failedFaultLeaksNothing faults va in p, which must fail because no frame
// is left for a page-table node, and requires the free frames of guest
// memory, the frames page tables map, and p's RSS, to be back at their
// values from before the fault.
func failedFaultLeaksNothing(t *testing.T, p *Process, va arch.VirtAddr) {
	t.Helper()
	mem := p.kernel.Memory()
	free, rss := mem.FreeFrames(), p.RSS()
	maps, _, _, _ := heldFrames(p.kernel)
	if kind, err := p.Touch(va); err == nil {
		t.Fatalf("fault at %#x = %v with no frame left for a page-table node", uint64(va), kind)
	}
	if got := mem.FreeFrames(); got != free {
		t.Errorf("free frames %d before the failed fault, %d after", free, got)
	}
	if got, _, _, _ := heldFrames(p.kernel); len(got) != len(maps) {
		t.Errorf("mapped frames %d before the failed fault, %d after", len(maps), len(got))
	}
	if p.RSS() != rss {
		t.Errorf("RSS %d before the failed fault, %d after", rss, p.RSS())
	}
}

// The failed-Map tests leave free only the data frames the fault takes
// (none when it claims a reserved page) and fault a page whose region has
// no leaf page-table node yet, so Map finds no frame for the node.

func TestFailedMapFreesDefaultFrame(t *testing.T) {
	k := NewKernel(Config{MemBytes: 4 << 20, Policy: PolicyDefault, Seed: 1})
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 4<<20)
	if _, err := p.Touch(va); err != nil {
		t.Fatal(err)
	}
	frame, ok := k.Memory().AllocFrame(physmem.KindKernel)
	if !ok {
		t.Fatal("no free frame")
	}
	starve(k, frame)
	failedFaultLeaksNothing(t, p, va+pagetable.LargePageBytes)
}

func TestFailedMapFreesCAPagingFrame(t *testing.T) {
	k := NewKernel(Config{MemBytes: 4 << 20, Policy: PolicyCAPaging, Seed: 1})
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 4<<20)
	// The last page before a 2MB boundary is the neighbour whose next
	// frame the fault at the boundary asks for. Touching va first builds
	// the neighbour's page-table nodes, so they do not take that frame.
	boundary := arch.VirtAddr(arch.AlignUp(uint64(va)+1, pagetable.LargePageBytes))
	for _, page := range []arch.VirtAddr{va, boundary - arch.PageSize} {
		if _, err := p.Touch(page); err != nil {
			t.Fatal(err)
		}
	}
	prev, _ := p.Translate(boundary - arch.PageSize)
	want := prev + arch.PageSize
	if !k.Memory().AllocFrameAt(want) {
		t.Fatalf("frame %#x after the neighbour's is not free", uint64(want))
	}
	starve(k, want)
	before := k.Snapshot()
	failedFaultLeaksNothing(t, p, boundary)
	if !k.Memory().AllocFrameAt(want) {
		t.Errorf("frame %#x is not free", uint64(want))
	}
	if d := k.Snapshot().Delta(before); d.Faults[FaultCAHit] != 0 || d.Faults[FaultDefault] != 0 {
		t.Errorf("failed fault counted: %+v", d.Faults)
	}
}

func TestFailedMapReturnsMagnetGroup(t *testing.T) {
	k := NewKernel(Config{MemBytes: 4 << 20, Policy: PolicyPTEMagnet, Seed: 1})
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 4<<20)
	if _, err := p.Touch(va); err != nil {
		t.Fatal(err)
	}
	group, ok := k.Memory().AllocOrder(3, physmem.KindKernel)
	if !ok {
		t.Fatal("no free group")
	}
	starve(k, group)
	live, unused := p.Part().Live(), p.Part().UnusedPages()
	failedFaultLeaksNothing(t, p, va+pagetable.LargePageBytes)
	// The new reservation dissolved: its group is free again.
	if p.Part().Live() != live || p.Part().UnusedPages() != unused {
		t.Errorf("reservations %d with %d unused pages, want %d with %d",
			p.Part().Live(), p.Part().UnusedPages(), live, unused)
	}
	if got := k.Memory().Buddy().LargestFreeOrder(); got != 3 {
		t.Errorf("largest free order %d, want the group's 3", got)
	}
}

func TestFailedMapReturnsParentClaim(t *testing.T) {
	k := NewKernel(Config{MemBytes: 4 << 20, Policy: PolicyPTEMagnet, Seed: 1})
	parent := mustSpawn(t, k, "parent")
	va := mustMmap(t, parent, 4<<20)
	child, err := parent.Fork("child")
	if err != nil {
		t.Fatal(err)
	}
	// The parent reserves a group the child's page table has no leaf
	// node for: the child's claim from it cannot be mapped.
	group := va + pagetable.LargePageBytes
	if _, err := parent.Touch(group); err != nil {
		t.Fatal(err)
	}
	starve(k, arch.NoPhysAddr)
	unused := parent.Part().UnusedPages()
	failedFaultLeaksNothing(t, child, group+arch.PageSize)
	if parent.Part().UnusedPages() != unused {
		t.Errorf("parent reservation holds %d unused pages, want %d", parent.Part().UnusedPages(), unused)
	}
	// The page is the parent's reservation's again.
	if kind, err := parent.Touch(group + arch.PageSize); err != nil || kind != FaultMagnetHit {
		t.Errorf("parent fault on the returned page = %v, %v; want a reservation hit", kind, err)
	}
}

func TestFailedMapFreesHugePage(t *testing.T) {
	k := NewKernel(Config{MemBytes: 8 << 20, Policy: PolicyTHP, Seed: 1})
	p := mustSpawn(t, k, "a")
	// A region that crosses a 1GB boundary: a huge page there needs a
	// level-2 node of its own.
	va := mustMmap(t, p, 2<<30)
	if _, err := p.Touch(va); err != nil {
		t.Fatal(err)
	}
	huge, ok := k.Memory().AllocOrder(9, physmem.KindKernel)
	if !ok {
		t.Fatal("no free 2MB block")
	}
	starve(k, huge)
	failedFaultLeaksNothing(t, p, arch.VirtAddr(arch.AlignUp(uint64(va)+1, 1<<30)))
	if got := k.Memory().Buddy().LargestFreeOrder(); got != 9 {
		t.Errorf("largest free order %d, want the huge page's 9", got)
	}
}
