package nested

import (
	"errors"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/cache"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/physmem"
	"ptemagnet/internal/tlb"
)

// rig bundles a hand-built guest address space over a real host VM.
type rig struct {
	guestMem *physmem.Memory
	gpt      *pagetable.Table
	host     *hostos.Kernel
	vm       *hostos.VM
	hier     *cache.Hierarchy
	w        *Walker
}

func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	host := hostos.NewKernel(256 << 20)
	vm, err := host.CreateVM(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	guestMem := physmem.New(64 << 20)
	gpt, err := pagetable.New(guestMem)
	if err != nil {
		t.Fatal(err)
	}
	hier := cache.NewHierarchy(cache.DefaultConfig(1))
	return &rig{guestMem: guestMem, gpt: gpt, host: host, vm: vm, hier: hier, w: New(cfg, hier, vm)}
}

// translate runs one access as the machine loop does: TranslateFast, then
// TranslateSlow on a miss.
func translate(w *Walker, cpu int, asid uint32, gpt *pagetable.Table, va arch.VirtAddr, write bool) Outcome {
	if out, ok := w.TranslateFast(asid, va, write); ok {
		return out
	}
	return w.TranslateSlow(cpu, asid, gpt, va, write)
}

// tinyTLBConfig forces main-TLB misses by shrinking the TLB to 4 entries.
func tinyTLBConfig() Config {
	cfg := DefaultConfig()
	cfg.TLB = tlb.TwoLevelConfig{
		L1: tlb.Config{Entries: 2, Ways: 2},
		L2: tlb.Config{Entries: 2, Ways: 2},
	}
	return cfg
}

// mapGuest maps va→gpa in the guest table, allocating the guest frame
// explicitly at gpa (the test controls contiguity).
func (r *rig) mapGuest(t *testing.T, va arch.VirtAddr, gpa arch.PhysAddr, flags pagetable.Flags) {
	t.Helper()
	if err := r.gpt.Map(va, gpa, flags); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateUnmappedIsGuestFault(t *testing.T) {
	r := newRig(t, DefaultConfig())
	out := translate(r.w, 0, 1, r.gpt, 0x1000, false)
	if out.Ok || !out.GuestFault {
		t.Fatalf("outcome = %+v, want guest fault", out)
	}
	if r.w.Snapshot().GuestFaults != 1 {
		t.Error("guest fault not counted")
	}
}

func TestTranslateThenTLBHit(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, va, 0x100000, pagetable.FlagWritable)
	out := translate(r.w, 0, 1, r.gpt, va+0x123, false)
	if !out.Ok || out.TLBHit {
		t.Fatalf("first translate: %+v", out)
	}
	hpa, ok := r.vm.Translate(0x100000)
	if !ok {
		t.Fatal("host did not map the data page")
	}
	if out.HPA != hpa+0x123 {
		t.Errorf("HPA = %#x, want %#x", out.HPA, hpa+0x123)
	}
	out2 := translate(r.w, 0, 1, r.gpt, va+0x456, false)
	if !out2.Ok || !out2.TLBHit {
		t.Fatalf("second translate: %+v", out2)
	}
	if out2.HPA != hpa+0x456 {
		t.Errorf("TLB-hit HPA = %#x, want %#x", out2.HPA, hpa+0x456)
	}
	if out2.Cycles != tlbHitCycles {
		t.Errorf("TLB-hit cycles = %d", out2.Cycles)
	}
}

func TestHostFaultsAreTransparent(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, va, 0x100000, pagetable.FlagWritable)
	out := translate(r.w, 0, 1, r.gpt, va, false)
	if !out.Ok {
		t.Fatalf("translate failed: %+v", out)
	}
	s := r.w.Snapshot()
	// The data page and every touched guest PT node page need host
	// backing: at least 2 host faults (data + leaf PT node …).
	if s.HostFaults < 2 {
		t.Errorf("HostFaults = %d, want >= 2", s.HostFaults)
	}
	// Each host fault backed one guest page; nothing else maps them.
	if r.vm.MappedGuestPages() != s.HostFaults {
		t.Errorf("walker counted %d host faults, VM maps %d pages", s.HostFaults, r.vm.MappedGuestPages())
	}
	// Re-translating a neighbouring page causes no further host faults
	// for PT nodes (already mapped).
	r.mapGuest(t, va+arch.PageSize, 0x101000, pagetable.FlagWritable)
	before := r.w.Snapshot().HostFaults
	translate(r.w, 0, 1, r.gpt, va+arch.PageSize, false)
	if got := r.w.Snapshot().HostFaults - before; got != 1 { // data page only
		t.Errorf("second translate took %d host faults, want 1", got)
	}
}

// oneHostOOM fails the first host frame allocation it is consulted on.
type oneHostOOM struct{ fired bool }

func (o *oneHostOOM) InjectHostOOM() error {
	if o.fired {
		return nil
	}
	o.fired = true
	return errors.New("injected host OOM")
}

func (o *oneHostOOM) NoteAbsorbedHostOOM() {}

// relieveBy is a pressure reliever whose relief is a function call.
type relieveBy func()

func (f relieveBy) RelieveFor(int, uint64) (string, bool) {
	f()
	return "relieved", true
}

// TestPageDroppedMidWalkFaults pins the re-read after a host fault: when
// the balloon relief behind a host fault drops the very page being walked,
// the walk ends in a guest fault and caches nothing, rather than finishing
// through the gPA it read before the page went.
func TestPageDroppedMidWalkFaults(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := arch.VirtAddr(0x7f0000000000)
	gpa := arch.PhysAddr(0x100000)
	r.mapGuest(t, va, gpa, pagetable.FlagWritable)
	// The guest PT nodes have no host backing yet, so the walk takes host
	// faults; the first one meets the injected OOM, and relief swaps the
	// walked page out.
	r.host.SetOOMInjector(&oneHostOOM{})
	r.host.SetPressureReliever(relieveBy(func() { r.gpt.Unmap(va) }))
	out := translate(r.w, 0, 1, r.gpt, va, false)
	if out.Ok || !out.GuestFault || out.Err != nil {
		t.Fatalf("outcome = %+v, want a guest fault", out)
	}
	if s := r.w.Snapshot(); s.HostFaults == 0 || s.GuestFaults != 1 {
		t.Fatalf("host faults %d, guest faults %d; want some and 1", s.HostFaults, s.GuestFaults)
	}
	if r.w.FaultStop() != (pagetable.Stop{}) {
		t.Error("the fault's stop survived the relief that rewrote the guest table")
	}
	if _, hit := r.w.TranslateFast(1, va, false); hit {
		t.Error("main TLB caches the dropped page")
	}
	if _, ok := r.vm.Translate(gpa); ok {
		t.Error("the dropped page's guest frame got host backing")
	}
}

// TestGuestFaultLeavesItsStop: a walk that ends in a guest fault leaves
// where its guest walk stopped, current while the table is unchanged: at
// an absent page, a map from the stop installs it; at a read-only page
// written, a translation from the stop reads the entry the walk read.
func TestGuestFaultLeavesItsStop(t *testing.T) {
	r := newRig(t, tinyTLBConfig())
	va := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, va, 0x100000, pagetable.FlagCOW)
	absent := va + 3*arch.PageSize
	if out := translate(r.w, 0, 1, r.gpt, absent, false); !out.GuestFault {
		t.Fatalf("absent page: %+v, want a guest fault", out)
	}
	nodes := r.gpt.NodeCount()
	if err := r.gpt.MapAt(r.w.FaultStop(), absent, 0x200000, pagetable.FlagWritable); err != nil {
		t.Fatal(err)
	}
	if out := translate(r.w, 0, 1, r.gpt, absent, true); !out.Ok || r.gpt.NodeCount() != nodes {
		t.Fatalf("after MapAt from the fault's stop: %+v with %d nodes, want a translation with %d", out, r.gpt.NodeCount(), nodes)
	}
	if out := translate(r.w, 0, 1, r.gpt, va, true); !out.GuestFault {
		t.Fatalf("write to a COW page: %+v, want a guest fault", out)
	}
	if gpa, flags, ok := r.gpt.TranslateAt(r.w.FaultStop(), va); !ok || gpa != 0x100000 || flags != pagetable.FlagCOW {
		t.Errorf("TranslateAt from the fault's stop = %#x,%v,%v, want the COW entry", uint64(gpa), flags, ok)
	}
}

// TestPageDroppedByDataPageFaultFaults: with every guest PT node already
// host-backed, the data page's host fault is the walk's only one; when its
// balloon relief drops the walked page, the walk still ends in a guest fault
// and the main TLB caches nothing.
func TestPageDroppedByDataPageFaultFaults(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := arch.VirtAddr(0x7f0000000000)
	gpa := arch.PhysAddr(0x100000)
	r.mapGuest(t, va, gpa, pagetable.FlagWritable)
	nodes, _, _, _ := r.gpt.WalkAppend(nil, va, r.gpt.Levels(), r.gpt.Root())
	for _, a := range nodes {
		if err := r.vm.HandleFault(a.EntryAddr); err != nil {
			t.Fatal(err)
		}
	}
	r.host.SetOOMInjector(&oneHostOOM{})
	r.host.SetPressureReliever(relieveBy(func() { r.gpt.Unmap(va) }))
	out := translate(r.w, 0, 1, r.gpt, va, false)
	if out.Ok || !out.GuestFault || out.Err != nil {
		t.Fatalf("outcome = %+v, want a guest fault", out)
	}
	if s := r.w.Snapshot(); s.HostFaults != 1 || s.GuestFaults != 1 {
		t.Fatalf("host faults %d, guest faults %d; want 1 and 1", s.HostFaults, s.GuestFaults)
	}
	if r.w.FaultStop() != (pagetable.Stop{}) {
		t.Error("the fault's stop survived the relief that rewrote the guest table")
	}
	if _, hit := r.w.TranslateFast(1, va, false); hit {
		t.Error("main TLB caches the dropped page")
	}
	// The fault whose relief dropped the page was backing its frame.
	if _, ok := r.vm.Translate(gpa); !ok {
		t.Error("the data page's guest frame has no host backing")
	}
}

func TestWriteToReadOnlyFaults(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, va, 0x100000, pagetable.FlagCOW) // not writable
	if out := translate(r.w, 0, 1, r.gpt, va, false); !out.Ok {
		t.Fatalf("read translate failed: %+v", out)
	}
	out := translate(r.w, 0, 1, r.gpt, va, true)
	if out.Ok || !out.GuestFault {
		t.Fatalf("write to RO page: %+v, want guest fault", out)
	}
	// After the kernel "handles COW" (remap writable), writes succeed.
	r.mapGuest(t, va, 0x200000, pagetable.FlagWritable)
	r.w.InvalidateRange(1, va, va+arch.PageSize)
	if out := translate(r.w, 0, 1, r.gpt, va, true); !out.Ok {
		t.Fatalf("write after COW resolve: %+v", out)
	}
}

// TestReadOnlyWriteWalkIsBucketed pins that a walk ending in the
// write-permission fault lands in the latency histogram like every other
// walk, so walk_hist sums to walks.
func TestReadOnlyWriteWalkIsBucketed(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, va, 0x100000, pagetable.FlagCOW)
	if out := translate(r.w, 0, 1, r.gpt, va, true); !out.GuestFault {
		t.Fatalf("write to COW page: %+v, want guest fault", out)
	}
	s := r.w.Snapshot()
	var total uint64
	for _, c := range s.WalkHist {
		total += c
	}
	if s.Walks != 1 || s.GuestFaults != 1 || total != 1 {
		t.Errorf("walks=%d guest faults=%d histogram total=%d, want 1, 1, 1", s.Walks, s.GuestFaults, total)
	}
}

func TestWriteHittingReadOnlyTLBEntryFaults(t *testing.T) {
	// A read first installs a read-only TLB entry; a subsequent write
	// must not silently succeed through the TLB.
	r := newRig(t, DefaultConfig())
	va := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, va, 0x100000, pagetable.FlagCOW)
	translate(r.w, 0, 1, r.gpt, va, false) // installs RO entry
	out := translate(r.w, 0, 1, r.gpt, va, true)
	if out.Ok || !out.GuestFault {
		t.Fatalf("write via RO TLB entry: %+v", out)
	}
}

func TestASIDIsolationInWalker(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, va, 0x100000, pagetable.FlagWritable)
	translate(r.w, 0, 1, r.gpt, va, false)
	// A different ASID with a different (empty) table must not hit the
	// first process's TLB entry.
	gpt2, err := pagetable.New(r.guestMem)
	if err != nil {
		t.Fatal(err)
	}
	out := translate(r.w, 0, 2, gpt2, va, false)
	if out.Ok {
		t.Fatal("ASID 2 translated through ASID 1's TLB entry")
	}
}

func TestInvalidateASID(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, va, 0x100000, pagetable.FlagWritable)
	translate(r.w, 0, 1, r.gpt, va, false)
	r.w.InvalidateASID(1)
	out := translate(r.w, 0, 1, r.gpt, va, false)
	if out.TLBHit {
		t.Error("TLB entry survived InvalidateASID")
	}
}

func TestWalkAccessAttribution(t *testing.T) {
	r := newRig(t, tinyTLBConfig())
	va := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, va, 0x100000, pagetable.FlagWritable)
	out := translate(r.w, 0, 1, r.gpt, va, false)
	if !out.Ok {
		t.Fatalf("translate: %+v", out)
	}
	s := r.w.Snapshot()
	// Cold walk: 4 guest PT accesses; host accesses for each guest node
	// page + the data page (PWCs cold too).
	if s.Accesses[DimGuest] != 4 {
		t.Errorf("guest PT accesses = %d, want 4", s.Accesses[DimGuest])
	}
	if s.Accesses[DimHost] == 0 {
		t.Error("no host PT accesses recorded")
	}
	if s.WalkCycles == 0 || out.Cycles == 0 {
		t.Error("no cycles charged")
	}
	var guestServedTotal uint64
	for _, c := range s.Served[DimGuest] {
		guestServedTotal += c
	}
	if guestServedTotal != s.Accesses[DimGuest] {
		t.Errorf("guest served sum %d != accesses %d", guestServedTotal, s.Accesses[DimGuest])
	}
}

func TestPWCsShortenWarmWalks(t *testing.T) {
	r := newRig(t, tinyTLBConfig())
	base := arch.VirtAddr(0x7f0000000000)
	for i := 0; i < 16; i++ {
		r.mapGuest(t, base+arch.VirtAddr(i*arch.PageSize), arch.PhysAddr(0x100000+i*arch.PageSize), pagetable.FlagWritable)
	}
	// Warm up PWCs with the first page.
	translate(r.w, 0, 1, r.gpt, base, false)
	before := r.w.Snapshot()
	// The TLB has 4 entries; translating 16 pages round-robin misses
	// plenty. Warm walks should take ~1 guest access each (leaf only).
	for round := 0; round < 2; round++ {
		for i := 0; i < 16; i++ {
			translate(r.w, 0, 1, r.gpt, base+arch.VirtAddr(i*arch.PageSize), false)
		}
	}
	after := r.w.Snapshot()
	walks := after.Walks - before.Walks
	guestAccesses := after.Accesses[DimGuest] - before.Accesses[DimGuest]
	if walks == 0 {
		t.Fatal("no walks with tiny TLB")
	}
	perWalk := float64(guestAccesses) / float64(walks)
	if perWalk > 1.5 {
		t.Errorf("warm walks average %.2f guest accesses, want ~1 (PWC broken)", perWalk)
	}
	if after.PWCHits[DimGuest] == before.PWCHits[DimGuest] {
		t.Error("guest PWC never hit")
	}
}

// TestWalkAllocatesNothing pins that a translation missing every cache
// allocates nothing: the guest and host walks reuse the walker's buffers.
// A 2-entry NTLB sends each data page to a host walk.
func TestWalkAllocatesNothing(t *testing.T) {
	cfg := tinyTLBConfig()
	cfg.NTLB = tlb.Config{Entries: 2, Ways: 2}
	r := newRig(t, cfg)
	const pages = 16
	va := func(i int) arch.VirtAddr { return arch.VirtAddr(0x400000 + (i%pages)*arch.PageSize) }
	for i := 0; i < pages; i++ {
		// Backs every host page the walks below read.
		mapThrough(t, r, va(i), arch.PhysAddr(0x100000+i*arch.PageSize), pagetable.FlagWritable)
	}
	before := r.w.Snapshot()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		translate(r.w, 0, 1, r.gpt, va(i), false)
		i++
	})
	d := r.w.Snapshot().Delta(before)
	if d.Walks != d.Lookups || d.Accesses[DimHost] < d.Walks || d.HostFaults != 0 {
		t.Fatalf("want a walk with a host walk and no host fault per translation, got %+v", d)
	}
	if allocs != 0 {
		t.Errorf("Translate allocates %.2f times per TLB miss, want 0", allocs)
	}
}

func TestContiguityReducesHostPTEFootprint(t *testing.T) {
	// The paper's central mechanism, end to end: translate a spatially
	// local access stream over 64 guest pages whose gPAs are either
	// contiguous (PTEMagnet layout) or scattered (fragmented default
	// layout), and compare the number of distinct host-leaf-PTE cache
	// blocks touched. Contiguous must touch 8x fewer.
	run := func(scatter bool) int {
		host := hostos.NewKernel(256 << 20)
		vm, _ := host.CreateVM(64 << 20)
		guestMem := physmem.New(64 << 20)
		gpt, _ := pagetable.New(guestMem)
		hier := cache.NewHierarchy(cache.DefaultConfig(1))
		w := New(tinyTLBConfig(), hier, vm)
		base := arch.VirtAddr(0x7f0000000000)
		for i := 0; i < 64; i++ {
			gpa := arch.PhysAddr(0x400000 + i*arch.PageSize)
			if scatter {
				// 16 pages apart: every page in a different hPTE block.
				gpa = arch.PhysAddr(0x400000 + i*16*arch.PageSize)
			}
			if err := gpt.Map(base+arch.VirtAddr(i*arch.PageSize), gpa, pagetable.FlagWritable); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 3; round++ {
			for i := 0; i < 64; i++ {
				out := translate(w, 0, 1, gpt, base+arch.VirtAddr(i*arch.PageSize), false)
				if !out.Ok {
					t.Fatalf("translate failed: %+v", out)
				}
			}
		}
		// Count distinct host leaf PTE cache blocks.
		blocks := map[uint64]bool{}
		for i := 0; i < 64; i++ {
			gpa, _, _ := gpt.Translate(base + arch.VirtAddr(i*arch.PageSize))
			ea, ok := vm.PageTable().LeafEntryAddr(arch.VirtAddr(gpa))
			if !ok {
				t.Fatal("host leaf entry missing")
			}
			blocks[ea.CacheBlock()] = true
		}
		return len(blocks)
	}
	contig := run(false)
	scattered := run(true)
	if contig != 8 {
		t.Errorf("contiguous layout: %d hPTE blocks, want 8", contig)
	}
	if scattered != 64 {
		t.Errorf("scattered layout: %d hPTE blocks, want 64", scattered)
	}
}

func TestStatsMemServed(t *testing.T) {
	var s Stats
	s.Served[DimHost][cache.LevelMemory] = 42
	if s.MemServed(DimHost) != 42 {
		t.Error("MemServed wrong")
	}
}

func BenchmarkTranslateTLBHit(b *testing.B) {
	host := hostos.NewKernel(256 << 20)
	vm, _ := host.CreateVM(64 << 20)
	guestMem := physmem.New(64 << 20)
	gpt, _ := pagetable.New(guestMem)
	hier := cache.NewHierarchy(cache.DefaultConfig(1))
	w := New(DefaultConfig(), hier, vm)
	gpt.Map(0x1000, 0x100000, pagetable.FlagWritable)
	translate(w, 0, 1, gpt, 0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		translate(w, 0, 1, gpt, 0x1000, false)
	}
}

func BenchmarkTranslateWalk(b *testing.B) {
	host := hostos.NewKernel(512 << 20)
	vm, _ := host.CreateVM(256 << 20)
	guestMem := physmem.New(256 << 20)
	gpt, _ := pagetable.New(guestMem)
	hier := cache.NewHierarchy(cache.DefaultConfig(1))
	cfg := DefaultConfig()
	cfg.TLB = tlb.TwoLevelConfig{L1: tlb.Config{Entries: 2, Ways: 2}, L2: tlb.Config{Entries: 2, Ways: 2}}
	w := New(cfg, hier, vm)
	const pages = 4096
	for i := 0; i < pages; i++ {
		gpt.Map(arch.VirtAddr(i)<<arch.PageShift, arch.PhysAddr(0x400000+i*arch.PageSize), pagetable.FlagWritable)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		translate(w, 0, 1, gpt, arch.VirtAddr(i%pages)<<arch.PageShift, false)
	}
}

func TestWalkHistogram(t *testing.T) {
	r := newRig(t, tinyTLBConfig())
	base := arch.VirtAddr(0x7f0000000000)
	for i := 0; i < 32; i++ {
		r.mapGuest(t, base+arch.VirtAddr(i*arch.PageSize), arch.PhysAddr(0x100000+i*arch.PageSize), pagetable.FlagWritable)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 32; i++ {
			translate(r.w, 0, 1, r.gpt, base+arch.VirtAddr(i*arch.PageSize), false)
		}
	}
	s := r.w.Snapshot()
	var total uint64
	for _, c := range s.WalkHist {
		total += c
	}
	if total != s.Walks {
		t.Errorf("histogram holds %d walks, stats say %d", total, s.Walks)
	}
	p50 := s.WalkLatencyPercentile(0.5)
	p99 := s.WalkLatencyPercentile(0.99)
	if p50 == 0 || p99 < p50 {
		t.Errorf("percentiles p50=%d p99=%d", p50, p99)
	}
}

func TestWalkLatencyPercentileEmpty(t *testing.T) {
	var s Stats
	if s.WalkLatencyPercentile(0.5) != 0 {
		t.Error("empty stats percentile != 0")
	}
}

func TestStatsDeltaIncludesHistogram(t *testing.T) {
	r := newRig(t, tinyTLBConfig())
	base := arch.VirtAddr(0x7f0000000000)
	r.mapGuest(t, base, 0x100000, pagetable.FlagWritable)
	translate(r.w, 0, 1, r.gpt, base, false)
	snap := r.w.Snapshot()
	translate(r.w, 0, 1, r.gpt, base, false) // TLB hit, no walk
	d := r.w.Snapshot().Delta(snap)
	var total uint64
	for _, c := range d.WalkHist {
		total += c
	}
	if total != d.Walks {
		t.Errorf("delta histogram %d != delta walks %d", total, d.Walks)
	}
}
