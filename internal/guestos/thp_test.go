package guestos

import (
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
)

func thpKernel(t *testing.T) *Kernel {
	t.Helper()
	return NewKernel(Config{MemBytes: 64 << 20, Policy: PolicyTHP, Seed: 1})
}

func TestTHPPromotesEmptyRegion(t *testing.T) {
	k := thpKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 4<<20)
	// mmap bases are only 32KB-aligned; fault somewhere 2MB-coverable.
	target := arch.VirtAddr(arch.AlignUp(uint64(va), pagetable.LargePageBytes))
	kind, err := p.HandlePageFault(target+0x1234, false)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FaultTHP {
		t.Fatalf("kind = %v, want thp", kind)
	}
	if p.RSS() != 512 {
		t.Errorf("RSS = %d, want 512 (whole huge page committed)", p.RSS())
	}
	if !p.PageTable().IsLargeMapped(target) {
		t.Error("region not large-mapped")
	}
	// The next access in the same region is already mapped.
	kind, _ = p.HandlePageFault(target+1<<20, false)
	if kind != FaultAlreadyMapped {
		t.Errorf("second fault kind = %v", kind)
	}
	// The huge page is physically contiguous and 2MB-aligned.
	pa0, _ := p.Translate(target)
	if uint64(pa0)%pagetable.LargePageBytes != 0 {
		t.Errorf("huge page at %#x not 2MB aligned", pa0)
	}
	paMid, _ := p.Translate(target + 1<<20)
	if paMid != pa0+1<<20 {
		t.Errorf("huge page not contiguous")
	}
}

func TestTHPFallsBackWhenRegionNotCovered(t *testing.T) {
	k := thpKernel(t)
	p := mustSpawn(t, k, "a")
	// A VMA smaller than 2MB can never promote.
	va := mustMmap(t, p, 64<<10)
	kind, err := p.HandlePageFault(va, false)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FaultDefault {
		t.Errorf("kind = %v, want default fallback", kind)
	}
	if k.Snapshot().THPFallbacks == 0 {
		t.Error("fallback not counted")
	}
}

func TestTHPFallsBackUnderFragmentation(t *testing.T) {
	// Exhaust large blocks with single-page churn so no order-9 block
	// remains, then fault a THP-eligible region.
	k := thpKernel(t)
	hog := mustSpawn(t, k, "hog")
	hogVA := mustMmap(t, hog, 48<<20)
	// Touch pages sparsely so free memory remains but contiguity is gone:
	// take one page out of every 256 (1MB stride).
	for off := uint64(0); off < 48<<20; off += 1 << 20 {
		if _, err := hog.HandlePageFault(hogVA+arch.VirtAddr(off), false); err != nil {
			t.Fatal(err)
		}
	}
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 4<<20)
	target := arch.VirtAddr(arch.AlignUp(uint64(va), pagetable.LargePageBytes))
	kind, err := p.HandlePageFault(target, false)
	if err != nil {
		t.Fatal(err)
	}
	if kind == FaultTHP {
		// The hog's stride may still leave an order-9 block; verify via
		// the buddy state rather than fail spuriously.
		if k.Memory().Buddy().LargestFreeOrder() < 9 {
			t.Error("THP promoted without an order-9 block")
		}
	} else if kind != FaultDefault {
		t.Errorf("kind = %v", kind)
	}
}

func TestTHPSplitOnPartialFree(t *testing.T) {
	k := thpKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 4<<20)
	target := arch.VirtAddr(arch.AlignUp(uint64(va), pagetable.LargePageBytes))
	p.HandlePageFault(target, false)
	used := k.Memory().UsedFrames()
	// Free one 4KB page in the middle: the huge page must split and only
	// that page's frame return to the allocator.
	if err := p.Free(target+5*arch.PageSize, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if k.Snapshot().THPSplits != 1 {
		t.Errorf("THPSplits = %d", k.Snapshot().THPSplits)
	}
	if p.PageTable().IsLargeMapped(target) {
		t.Error("region still large-mapped after partial free")
	}
	// One frame freed, one PT node allocated by the demotion: net 0.
	if got := k.Memory().UsedFrames(); got != used {
		t.Errorf("used frames %d → %d, want unchanged (one freed, one node added)", used, got)
	}
	if p.RSS() != 511 {
		t.Errorf("RSS = %d, want 511", p.RSS())
	}
	// Remaining pages still translate to the original physical bytes.
	pa6, ok := p.Translate(target + 6*arch.PageSize)
	if !ok {
		t.Fatal("page 6 unmapped after split")
	}
	pa7, _ := p.Translate(target + 7*arch.PageSize)
	if pa7 != pa6+arch.PageSize {
		t.Error("split broke contiguity")
	}
}

func TestTHPSwapOutSplits(t *testing.T) {
	k := thpKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 4<<20)
	target := arch.VirtAddr(arch.AlignUp(uint64(va), pagetable.LargePageBytes))
	p.HandlePageFault(target, false)
	if !p.SwapOut(target + 17*arch.PageSize) {
		t.Fatal("SwapOut failed")
	}
	if k.Snapshot().THPSplits != 1 {
		t.Errorf("THPSplits = %d", k.Snapshot().THPSplits)
	}
	if _, ok := p.Translate(target + 17*arch.PageSize); ok {
		t.Error("swapped page still mapped")
	}
	if p.RSS() != 511 {
		t.Errorf("RSS = %d", p.RSS())
	}
}

func TestTHPForkSplitsAndShares(t *testing.T) {
	k := thpKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 4<<20)
	target := arch.VirtAddr(arch.AlignUp(uint64(va), pagetable.LargePageBytes))
	p.HandlePageFault(target, false)
	child, err := p.Fork("child")
	if err != nil {
		t.Fatal(err)
	}
	if k.Snapshot().THPSplits != 1 {
		t.Errorf("THPSplits = %d after fork", k.Snapshot().THPSplits)
	}
	// All 512 pages shared COW.
	if child.RSS() != 512 {
		t.Errorf("child RSS = %d", child.RSS())
	}
	pPA, _ := p.Translate(target)
	cPA, _ := child.Translate(target)
	if pPA != cPA {
		t.Error("fork did not share pages")
	}
	// Child COW write copies one page only.
	kind, err := child.HandlePageFault(target, true)
	if err != nil || kind != FaultCOW {
		t.Fatalf("COW: %v %v", kind, err)
	}
	child.Exit()
	p.Exit()
	if k.Memory().UsedFrames() != 0 {
		t.Errorf("%d frames leak", k.Memory().UsedFrames())
	}
}

func TestTHPExitReleasesHugePages(t *testing.T) {
	k := thpKernel(t)
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 8<<20)
	for off := uint64(0); off < 8<<20; off += pagetable.LargePageBytes {
		p.HandlePageFault(va+arch.VirtAddr(off), false)
	}
	if p.PageTable().LargeMappings() == 0 {
		t.Fatal("no huge pages mapped")
	}
	p.Exit()
	if k.Memory().UsedFrames() != 0 {
		t.Errorf("%d frames leak after exit", k.Memory().UsedFrames())
	}
}

func TestTHPInternalFragmentation(t *testing.T) {
	// The §2.3 cost: touching one byte commits 2MB. Compare RSS against
	// the default policy for a sparse toucher.
	touch := func(policy AllocPolicy) uint64 {
		k := NewKernel(Config{MemBytes: 64 << 20, Policy: policy, Seed: 1})
		p := mustSpawn(t, k, "a")
		va := mustMmap(t, p, 16<<20)
		for off := uint64(0); off < 16<<20; off += pagetable.LargePageBytes {
			if _, err := p.HandlePageFault(va+arch.VirtAddr(off)+0x1000, false); err != nil {
				t.Fatal(err)
			}
		}
		return p.RSS()
	}
	def := touch(PolicyDefault)
	thp := touch(PolicyTHP)
	if thp < def*256 {
		t.Errorf("THP RSS %d vs default %d; internal fragmentation not modelled", thp, def)
	}
}
