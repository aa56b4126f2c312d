package core

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

// testAlloc builds an alloc callback over a physmem backing.
func testAlloc(mem *physmem.Memory, groupPages int) func() (arch.PhysAddr, bool) {
	return func() (arch.PhysAddr, bool) {
		return mem.AllocGroup(groupPages, physmem.KindReserved)
	}
}

func newPart(t *testing.T) (*PaRT, *physmem.Memory) {
	t.Helper()
	return MustNew(DefaultConfig()), physmem.New(64 << 20)
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 65, 128} {
		cfg := Config{GroupPages: bad}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(GroupPages=%d) = nil, want error", bad)
		}
		p, err := New(cfg)
		if err == nil || p != nil {
			t.Errorf("New(GroupPages=%d) = %v, %v; want nil, error", bad, p, err)
		}
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("New(GroupPages=%d) error %v is not a *ConfigError", bad, err)
		} else if cerr.Field != "GroupPages" {
			t.Errorf("ConfigError.Field = %q, want GroupPages", cerr.Field)
		}
	}
	for _, good := range []int{1, 2, 4, 8, 16, 32, 64} {
		if _, err := New(Config{GroupPages: good}); err != nil {
			t.Errorf("New(GroupPages=%d) failed: %v", good, err)
		}
	}
}

func TestMustNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(GroupPages=3) did not panic")
		}
	}()
	MustNew(Config{GroupPages: 3})
}

func TestFirstFaultCreatesReservation(t *testing.T) {
	p, mem := newPart(t)
	va := arch.VirtAddr(0x7f0000003000) // page 3 of its group
	pa, res := p.HandleFault(va, testAlloc(mem, 8))
	if res != FaultNewReservation {
		t.Fatalf("result = %v", res)
	}
	if uint64(pa)%arch.PageSize != 0 {
		t.Errorf("pa %#x not page aligned", uint64(pa))
	}
	// The returned page must be the group-index-th page of an aligned group.
	if uint64(pa)%(8*arch.PageSize) != 3*arch.PageSize {
		t.Errorf("pa %#x is not page 3 of an aligned group", uint64(pa))
	}
	if p.Live() != 1 {
		t.Errorf("Live = %d", p.Live())
	}
	if p.UnusedPages() != 7 {
		t.Errorf("UnusedPages = %d, want 7", p.UnusedPages())
	}
	// The whole group left the buddy; the PaRT holds the seven the
	// fault did not claim.
	if got := mem.UsedFrames(); got != 8 {
		t.Errorf("used frames = %d, want the group's 8", got)
	}
}

func TestSubsequentFaultsHitReservation(t *testing.T) {
	p, mem := newPart(t)
	base := arch.VirtAddr(0x7f0000000000)
	firstPA, _ := p.HandleFault(base, testAlloc(mem, 8))
	calls := 0
	countingAlloc := func() (arch.PhysAddr, bool) {
		calls++
		return mem.AllocGroup(8, physmem.KindReserved)
	}
	for i := 1; i < 8; i++ {
		pa, res := p.HandleFault(base+arch.VirtAddr(i*arch.PageSize), countingAlloc)
		if res != FaultReservationHit {
			t.Fatalf("fault %d: result = %v", i, res)
		}
		if pa != firstPA+arch.PhysAddr(i*arch.PageSize) {
			t.Errorf("fault %d: pa = %#x, want contiguous %#x", i, pa, firstPA+arch.PhysAddr(i*arch.PageSize))
		}
	}
	if calls != 0 {
		t.Errorf("buddy called %d times for reservation hits", calls)
	}
	// Group fully mapped → entry deleted.
	if p.Live() != 0 {
		t.Errorf("Live = %d after filling group", p.Live())
	}
	if p.UnusedPages() != 0 {
		t.Errorf("UnusedPages = %d", p.UnusedPages())
	}
	s := p.Snapshot()
	if s.Created != 1 || s.FullyMapped != 1 || s.Hits != 7 {
		t.Errorf("stats = %+v", s)
	}
}

func TestContiguityGuarantee(t *testing.T) {
	// Even with an adversarial interleaving pattern, pages of one group
	// are physically contiguous and aligned — the paper's core guarantee.
	p, mem := newPart(t)
	groups := []arch.VirtAddr{0x1000000, 0x2000000, 0x3000000}
	pas := map[arch.VirtAddr]arch.PhysAddr{}
	// Interleave faults across groups.
	for i := 0; i < 8; i++ {
		for _, g := range groups {
			va := g + arch.VirtAddr(i*arch.PageSize)
			pa, res := p.HandleFault(va, testAlloc(mem, 8))
			if res == FaultNoMemory {
				t.Fatal("out of memory")
			}
			pas[va] = pa
		}
	}
	for _, g := range groups {
		base := pas[g]
		if uint64(base)%(8*arch.PageSize) != 0 {
			t.Errorf("group %#x base %#x misaligned", uint64(g), uint64(base))
		}
		for i := 1; i < 8; i++ {
			va := g + arch.VirtAddr(i*arch.PageSize)
			if pas[va] != base+arch.PhysAddr(i*arch.PageSize) {
				t.Errorf("group %#x page %d not contiguous", uint64(g), i)
			}
		}
	}
}

func TestHandleFaultNoMemory(t *testing.T) {
	p := MustNew(DefaultConfig())
	pa, res := p.HandleFault(0x1000, func() (arch.PhysAddr, bool) { return arch.NoPhysAddr, false })
	if res != FaultNoMemory || pa != arch.NoPhysAddr {
		t.Errorf("result = %#x,%v", pa, res)
	}
	if p.Live() != 0 {
		t.Errorf("Live = %d after failed alloc", p.Live())
	}
}

func TestMisalignedAllocPanics(t *testing.T) {
	p := MustNew(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("misaligned reservation base did not panic")
		}
	}()
	p.HandleFault(0x1000, func() (arch.PhysAddr, bool) { return arch.PhysAddr(arch.PageSize), true })
}

func TestNotifyFreeReturnsPageToReservation(t *testing.T) {
	p, mem := newPart(t)
	base := arch.VirtAddr(0x40000000)
	pa0, _ := p.HandleFault(base, testAlloc(mem, 8))
	p.HandleFault(base+arch.PageSize, testAlloc(mem, 8))

	released := []arch.PhysAddr{}
	handled := p.NotifyFree(base, pa0, func(pa arch.PhysAddr) { released = append(released, pa) })
	if !handled {
		t.Fatal("free of reserved-group page not handled")
	}
	if len(released) != 0 {
		t.Fatalf("partial free released %d frames", len(released))
	}
	if p.UnusedPages() != 7 {
		t.Errorf("UnusedPages = %d, want 7", p.UnusedPages())
	}
	// Refaulting the freed page claims the same physical page again.
	pa, res := p.HandleFault(base, testAlloc(mem, 8))
	if res != FaultReservationHit || pa != pa0 {
		t.Errorf("refault: pa=%#x res=%v, want %#x hit", pa, res, pa0)
	}
}

func TestNotifyFreeLastPageDeletesReservation(t *testing.T) {
	p, mem := newPart(t)
	base := arch.VirtAddr(0x40000000)
	paFirst, _ := p.HandleFault(base, testAlloc(mem, 8))
	var released []arch.PhysAddr
	if !p.NotifyFree(base, paFirst, func(pa arch.PhysAddr) { released = append(released, pa) }) {
		t.Fatal("not handled")
	}
	if len(released) != 8 {
		t.Fatalf("released %d frames, want whole group of 8", len(released))
	}
	if p.Live() != 0 || p.UnusedPages() != 0 {
		t.Errorf("Live=%d UnusedPages=%d", p.Live(), p.UnusedPages())
	}
	if p.Snapshot().FullyFreed != 1 {
		t.Errorf("FullyFreed = %d", p.Snapshot().FullyFreed)
	}
}

func TestNotifyFreeAfterFullMappingIsUnhandled(t *testing.T) {
	p, mem := newPart(t)
	base := arch.VirtAddr(0x40000000)
	for i := 0; i < 8; i++ {
		p.HandleFault(base+arch.VirtAddr(i*arch.PageSize), testAlloc(mem, 8))
	}
	// Entry deleted; frees go the default kernel path.
	if p.NotifyFree(base, 0x12345000, func(arch.PhysAddr) { t.Fatal("released") }) {
		t.Error("free of fully-mapped group handled by PaRT")
	}
}

func TestLookup(t *testing.T) {
	p, mem := newPart(t)
	base := arch.VirtAddr(0x40000000)
	if _, ok := p.Lookup(base); ok {
		t.Error("lookup hit on empty table")
	}
	p.HandleFault(base+5*arch.PageSize, testAlloc(mem, 8))
	r, ok := p.Lookup(base + 2*arch.PageSize) // different page, same group
	if !ok {
		t.Fatal("lookup missed live reservation")
	}
	if r.GroupVA() != base {
		t.Errorf("GroupVA = %#x", uint64(r.GroupVA()))
	}
	if r.Mask() != 1<<5 {
		t.Errorf("Mask = %#b", r.Mask())
	}
	// Neighbouring group is distinct.
	if _, ok := p.Lookup(base + arch.GroupBytes); ok {
		t.Error("lookup hit neighbouring group")
	}
}

// TestHandleFaultClaimedSlot: a fault on a page a forked child already
// claimed from a live reservation is reported as FaultClaimed, claims
// nothing, moves no counter and never asks for a new group.
func TestHandleFaultClaimedSlot(t *testing.T) {
	for _, coarse := range []bool{false, true} {
		p := MustNew(Config{GroupPages: arch.GroupPages, CoarseLocking: coarse})
		mem := physmem.New(64 << 20)
		base := arch.VirtAddr(0x40000000)
		p.HandleFault(base, testAlloc(mem, 8))
		if _, ok := p.ClaimFromParent(base + arch.PageSize); !ok {
			t.Fatal("child claim failed")
		}
		r, _ := p.Lookup(base)
		hits, mask, unused := p.Snapshot().Hits, r.Mask(), p.UnusedPages()
		pa, res := p.HandleFault(base+arch.PageSize, func() (arch.PhysAddr, bool) {
			t.Fatal("alloc called under a live reservation")
			return arch.NoPhysAddr, false
		})
		if res != FaultClaimed || pa != arch.NoPhysAddr {
			t.Errorf("coarse=%v: HandleFault on a claimed slot = %#x, %v; want FaultClaimed", coarse, pa, res)
		}
		if p.Snapshot().Hits != hits || r.Mask() != mask || p.UnusedPages() != unused {
			t.Errorf("coarse=%v: claimed-slot fault moved state: hits %d→%d, mask %#b→%#b, unused %d→%d",
				coarse, hits, p.Snapshot().Hits, mask, r.Mask(), unused, p.UnusedPages())
		}
	}
}

func TestClaimFromParent(t *testing.T) {
	p, mem := newPart(t)
	base := arch.VirtAddr(0x40000000)
	pa0, _ := p.HandleFault(base, testAlloc(mem, 8))
	// Child claims page 1 from the parent's reservation.
	pa, ok := p.ClaimFromParent(base + arch.PageSize)
	if !ok || pa != pa0+arch.PageSize {
		t.Fatalf("ClaimFromParent = %#x,%v", pa, ok)
	}
	// Claiming an already-mapped page fails (the child must COW/share it).
	if _, ok := p.ClaimFromParent(base); ok {
		t.Error("claimed already-mapped page")
	}
	// No reservation → no claim.
	if _, ok := p.ClaimFromParent(0x90000000); ok {
		t.Error("claimed from nonexistent reservation")
	}
}

func TestReclaimReleasesOnlyUnmappedPages(t *testing.T) {
	p, mem := newPart(t)
	baseA := arch.VirtAddr(0x40000000)
	baseB := arch.VirtAddr(0x50000000)
	p.HandleFault(baseA, testAlloc(mem, 8))               // 1 mapped, 7 reserved
	p.HandleFault(baseB, testAlloc(mem, 8))               // 1 mapped, 7 reserved
	p.HandleFault(baseB+arch.PageSize, testAlloc(mem, 8)) // 2 mapped, 6 reserved
	var released []arch.PhysAddr
	infos := p.Reclaim(func(pa arch.PhysAddr) { released = append(released, pa) }, nil)
	if len(infos) != 2 {
		t.Fatalf("reclaimed %d reservations, want 2", len(infos))
	}
	if len(released) != 13 { // 7 + 6
		t.Errorf("released %d pages, want 13", len(released))
	}
	if p.Live() != 0 || p.UnusedPages() != 0 {
		t.Errorf("Live=%d UnusedPages=%d after reclaim", p.Live(), p.UnusedPages())
	}
	if p.Snapshot().Reclaimed != 2 {
		t.Errorf("Reclaimed = %d", p.Snapshot().Reclaimed)
	}
}

func TestReclaimThresholdByGauge(t *testing.T) {
	p, mem := newPart(t)
	for i := 0; i < 10; i++ {
		p.HandleFault(arch.VirtAddr(0x40000000+i*0x100000), testAlloc(mem, 8))
	}
	// Stop once unused pages drop to 35 (5 reservations × 7 unused).
	p.Reclaim(func(arch.PhysAddr) {}, func() bool { return p.UnusedPages() <= 35 })
	if p.Live() != 5 {
		t.Errorf("Live = %d, want 5", p.Live())
	}
	if p.UnusedPages() != 35 {
		t.Errorf("UnusedPages = %d, want 35", p.UnusedPages())
	}
}

func TestFaultAfterReclaimCreatesFreshReservation(t *testing.T) {
	p, mem := newPart(t)
	base := arch.VirtAddr(0x40000000)
	p.HandleFault(base, testAlloc(mem, 8))
	p.Reclaim(func(pa arch.PhysAddr) { mem.FreeBlock(pa) }, nil)
	_, res := p.HandleFault(base+arch.PageSize, testAlloc(mem, 8))
	if res != FaultNewReservation {
		t.Errorf("post-reclaim fault result = %v, want new reservation", res)
	}
}

func TestGranularitySweepGroupSizes(t *testing.T) {
	for _, gp := range []int{1, 2, 4, 16, 32} {
		p := MustNew(Config{GroupPages: gp})
		mem := physmem.New(64 << 20)
		base := arch.VirtAddr(0x40000000)
		pa0, res := p.HandleFault(base, testAlloc(mem, gp))
		if res != FaultNewReservation {
			t.Fatalf("gp=%d: first fault result %v", gp, res)
		}
		if gp == 1 {
			// Single-page groups are immediately full; no live entry.
			if p.Live() != 0 {
				t.Errorf("gp=1: Live = %d", p.Live())
			}
			continue
		}
		for i := 1; i < gp; i++ {
			pa, res := p.HandleFault(base+arch.VirtAddr(i*arch.PageSize), testAlloc(mem, gp))
			if res != FaultReservationHit || pa != pa0+arch.PhysAddr(i*arch.PageSize) {
				t.Errorf("gp=%d page %d: pa=%#x res=%v", gp, i, pa, res)
			}
		}
		if p.Live() != 0 {
			t.Errorf("gp=%d: Live = %d after filling", gp, p.Live())
		}
	}
}

func TestForEachVisitsAll(t *testing.T) {
	p, mem := newPart(t)
	want := map[arch.VirtAddr]bool{}
	for i := 0; i < 20; i++ {
		va := arch.VirtAddr(0x40000000 + i*0x100000)
		p.HandleFault(va, testAlloc(mem, 8))
		want[va] = true
	}
	got := map[arch.VirtAddr]bool{}
	p.ForEach(func(r *Reservation) bool {
		got[r.GroupVA()] = true
		return true
	})
	if len(got) != len(want) {
		t.Errorf("visited %d, want %d", len(got), len(want))
	}
	for va := range want {
		if !got[va] {
			t.Errorf("missed %#x", uint64(va))
		}
	}
}

func TestConcurrentFaultsOneGroupPerThreadSafe(t *testing.T) {
	// Many goroutines fault concurrently into disjoint and shared groups;
	// invariants: each page claimed exactly once, all groups contiguous.
	for _, coarse := range []bool{false, true} {
		p := MustNew(Config{GroupPages: 8, CoarseLocking: coarse})
		var mu sync.Mutex
		mem := physmem.New(256 << 20)
		alloc := func() (arch.PhysAddr, bool) {
			mu.Lock()
			defer mu.Unlock()
			return mem.AllocGroup(8, physmem.KindReserved)
		}
		const groups = 32
		results := make([][]arch.PhysAddr, groups)
		for g := range results {
			results[g] = make([]arch.PhysAddr, 8)
		}
		var wg sync.WaitGroup
		for worker := 0; worker < 8; worker++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker faults one page index across all groups, so
				// every group is touched by all workers concurrently.
				for g := 0; g < groups; g++ {
					va := arch.VirtAddr(0x40000000 + g*0x8000 + w*arch.PageSize)
					pa, res := p.HandleFault(va, alloc)
					if res == FaultNoMemory {
						t.Errorf("out of memory")
						return
					}
					results[g][w] = pa
				}
			}(worker)
		}
		wg.Wait()
		for g := 0; g < groups; g++ {
			base := results[g][0] - 0 // page 0 claimed by worker 0
			for w := 0; w < 8; w++ {
				if results[g][w] != base+arch.PhysAddr(w*arch.PageSize) {
					t.Errorf("coarse=%v group %d page %d: %#x not contiguous with %#x", coarse, g, w, results[g][w], base)
				}
			}
		}
		if p.Live() != 0 {
			t.Errorf("coarse=%v: %d live reservations after all groups filled", coarse, p.Live())
		}
	}
}

// Property: for random fault sequences, UnusedPages always equals
// sum over live reservations of (GroupPages - popcount(mask)).
func TestQuickUnusedPagesInvariant(t *testing.T) {
	f := func(pageIdxs []uint16) bool {
		p := MustNew(DefaultConfig())
		mem := physmem.New(128 << 20)
		seen := map[arch.VirtAddr]bool{}
		for _, raw := range pageIdxs {
			va := arch.VirtAddr(uint64(raw)) << arch.PageShift
			if seen[va] {
				continue
			}
			seen[va] = true
			if _, res := p.HandleFault(va, testAlloc(mem, 8)); res == FaultNoMemory {
				return true
			}
		}
		sum := 0
		p.ForEach(func(r *Reservation) bool {
			m := r.Mask()
			n := 0
			for i := 0; i < 8; i++ {
				if m&(1<<i) == 0 {
					n++
				}
			}
			sum += n
			return true
		})
		return sum == p.UnusedPages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHandleFaultNewReservation(b *testing.B) {
	p := MustNew(DefaultConfig())
	mem := physmem.New(1 << 30)
	alloc := testAlloc(mem, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(uint64(i%30000) * arch.GroupBytes)
		pa, res := p.HandleFault(va, alloc)
		if res == FaultNoMemory {
			b.Fatal("oom")
		}
		p.NotifyFree(va, pa, func(pa arch.PhysAddr) { mem.FreeBlock(pa) })
	}
}

func BenchmarkHandleFaultHit(b *testing.B) {
	p := MustNew(DefaultConfig())
	mem := physmem.New(1 << 24)
	alloc := testAlloc(mem, 8)
	base := arch.VirtAddr(0x40000000)
	p.HandleFault(base, alloc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := base + arch.PageSize
		pa, _ := p.HandleFault(va, alloc)
		p.NotifyFree(va, pa, func(arch.PhysAddr) {})
	}
}

func TestConcurrentFaultsFreesAndReclaim(t *testing.T) {
	// Faulting, freeing, and pressure-reclaiming goroutines hammer one
	// PaRT concurrently; the gauges must stay consistent and nothing may
	// be double-released (the backing physmem panics on double free).
	for _, coarse := range []bool{false, true} {
		p := MustNew(Config{GroupPages: 8, CoarseLocking: coarse})
		mem := physmem.New(256 << 20)
		var memMu sync.Mutex
		alloc := func() (arch.PhysAddr, bool) {
			memMu.Lock()
			defer memMu.Unlock()
			return mem.AllocGroup(8, physmem.KindReserved)
		}
		release := func(pa arch.PhysAddr) {
			memMu.Lock()
			defer memMu.Unlock()
			mem.FreeBlock(pa)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := arch.VirtAddr(uint64(w) << 36)
				// Track held pages like the kernel's page table does: a
				// page is only faulted when unmapped, only freed when
				// mapped.
				held := map[arch.VirtAddr]arch.PhysAddr{}
				for i := 0; i < 3000; i++ {
					va := base + arch.VirtAddr(uint64(i%512)*arch.PageSize)
					if pa, ok := held[va]; ok {
						if !p.NotifyFree(va, pa, release) {
							// Fully-mapped group or foreign frame: the
							// kernel frees it directly.
							release(pa)
						}
						delete(held, va)
						continue
					}
					pa, res := p.HandleFault(va, alloc)
					if res == FaultNoMemory {
						continue
					}
					held[va] = pa
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Reclaim(release, func() bool { return p.UnusedPages() < 64 })
			}
		}()
		wg.Wait()
		// Final gauge consistency.
		sum := 0
		p.ForEach(func(r *Reservation) bool {
			m := r.Mask()
			for i := 0; i < 8; i++ {
				if m&(1<<i) == 0 {
					sum++
				}
			}
			return true
		})
		if sum != p.UnusedPages() {
			t.Errorf("coarse=%v: gauge %d != recount %d", coarse, p.UnusedPages(), sum)
		}
	}
}

func TestDissolveGroup(t *testing.T) {
	p, mem := newPart(t)
	base := arch.VirtAddr(0x40000000)
	p.HandleFault(base, testAlloc(mem, 8))
	p.HandleFault(base+arch.PageSize, testAlloc(mem, 8))
	var released int
	if !p.DissolveGroup(base+5*arch.PageSize, func(pa arch.PhysAddr) { mem.FreeBlock(pa); released++ }) {
		t.Fatal("DissolveGroup missed live reservation")
	}
	if released != 6 {
		t.Errorf("released %d unmapped pages, want 6", released)
	}
	if p.Live() != 0 || p.UnusedPages() != 0 {
		t.Errorf("Live=%d UnusedPages=%d", p.Live(), p.UnusedPages())
	}
	if p.Snapshot().Reclaimed != 1 {
		t.Errorf("Reclaimed = %d", p.Snapshot().Reclaimed)
	}
	// Dissolving again (or a nonexistent group) is a no-op.
	if p.DissolveGroup(base, func(arch.PhysAddr) { t.Fatal("released") }) {
		t.Error("second dissolve succeeded")
	}
	if p.DissolveGroup(0x90000000, func(arch.PhysAddr) {}) {
		t.Error("dissolve of nonexistent group succeeded")
	}
}

func TestDestroyAll(t *testing.T) {
	p, mem := newPart(t)
	for i := 0; i < 5; i++ {
		p.HandleFault(arch.VirtAddr(0x40000000+i*0x100000), testAlloc(mem, 8))
	}
	released := 0
	p.DestroyAll(func(pa arch.PhysAddr) { mem.FreeBlock(pa); released++ })
	if released != 35 { // 5 groups × 7 unmapped
		t.Errorf("released %d, want 35", released)
	}
	if p.Live() != 0 {
		t.Errorf("Live = %d", p.Live())
	}
}

func TestReservationAccessorsAndConfig(t *testing.T) {
	p, mem := newPart(t)
	base := arch.VirtAddr(0x40000000)
	pa0, _ := p.HandleFault(base, testAlloc(mem, 8))
	r, _ := p.Lookup(base)
	if r.Base() != pa0.PageBase() {
		t.Errorf("Base = %#x, want %#x", r.Base(), pa0)
	}
	if p.Config().GroupPages != 8 {
		t.Errorf("Config = %+v", p.Config())
	}
	if p.GroupBytes() != 32<<10 {
		t.Errorf("GroupBytes = %d", p.GroupBytes())
	}
}

func TestFaultResultStrings(t *testing.T) {
	want := map[FaultResult]string{
		FaultNewReservation: "new-reservation",
		FaultReservationHit: "reservation-hit",
		FaultNoMemory:       "no-memory",
		FaultClaimed:        "claimed",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
	if FaultResult(99).String() == "" {
		t.Error("unknown result empty")
	}
}

func TestFullMask64(t *testing.T) {
	p := MustNew(Config{GroupPages: 64})
	mem := physmem.New(128 << 20)
	base := arch.VirtAddr(0x40000000)
	for i := 0; i < 64; i++ {
		_, res := p.HandleFault(base+arch.VirtAddr(i*arch.PageSize), testAlloc(mem, 64))
		if res == FaultNoMemory {
			t.Fatal("oom")
		}
	}
	if p.Live() != 0 {
		t.Errorf("64-page group not deleted when full: Live=%d", p.Live())
	}
}

func TestKeySpacePanic(t *testing.T) {
	p := MustNew(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("address beyond key space did not panic")
		}
	}()
	p.Lookup(arch.VirtAddr(1) << 52)
}

func TestCoarseLockingNotifyAndClaim(t *testing.T) {
	p := MustNew(Config{GroupPages: 8, CoarseLocking: true})
	mem := physmem.New(64 << 20)
	base := arch.VirtAddr(0x40000000)
	pa0, _ := p.HandleFault(base, testAlloc(mem, 8))
	if pa, ok := p.ClaimFromParent(base + arch.PageSize); !ok || pa != pa0+arch.PageSize {
		t.Errorf("coarse ClaimFromParent = %#x,%v", pa, ok)
	}
	if !p.NotifyFree(base, pa0, func(arch.PhysAddr) {}) {
		t.Error("coarse NotifyFree failed")
	}
	if !p.DissolveGroup(base, func(pa arch.PhysAddr) { mem.FreeBlock(pa) }) {
		t.Error("coarse DissolveGroup failed")
	}
}
