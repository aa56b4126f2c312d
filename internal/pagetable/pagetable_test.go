package pagetable

import (
	"slices"
	"testing"
	"testing/quick"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

func newTable(t *testing.T) (*Table, *physmem.Memory) {
	t.Helper()
	mem := physmem.New(16 << 20) // 16MB
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mem
}

// walk is an uncached walk from the root.
func walk(tbl *Table, va arch.VirtAddr) ([]Access, arch.PhysAddr, bool) {
	accesses, pa, _, found := tbl.WalkAppend(nil, va, tbl.Levels(), tbl.Root())
	return accesses, pa, found
}

func TestMapTranslate(t *testing.T) {
	tbl, _ := newTable(t)
	va := arch.VirtAddr(0x7f0012345000)
	pa := arch.PhysAddr(0x123000)
	if err := tbl.Map(va, pa, FlagWritable); err != nil {
		t.Fatal(err)
	}
	got, flags, ok := tbl.Translate(va + 0x678)
	if !ok {
		t.Fatal("translate missed")
	}
	if got != pa+0x678 {
		t.Errorf("Translate = %#x, want %#x", got, pa+0x678)
	}
	if flags != FlagWritable {
		t.Errorf("flags = %v", flags)
	}
	if tbl.MappedPages() != 1 {
		t.Errorf("MappedPages = %d", tbl.MappedPages())
	}
}

func TestTranslateUnmapped(t *testing.T) {
	tbl, _ := newTable(t)
	if _, _, ok := tbl.Translate(0x1000); ok {
		t.Error("translate hit on empty table")
	}
	tbl.Map(0x1000, 0x5000, 0)
	if _, _, ok := tbl.Translate(0x2000); ok {
		t.Error("translate hit on sibling page")
	}
}

func TestRemapReplaces(t *testing.T) {
	tbl, _ := newTable(t)
	tbl.Map(0x1000, 0x5000, FlagWritable)
	tbl.Map(0x1000, 0x9000, FlagCOW)
	pa, flags, ok := tbl.Translate(0x1000)
	if !ok || pa != 0x9000 || flags != FlagCOW {
		t.Errorf("after remap: pa=%#x flags=%v ok=%v", pa, flags, ok)
	}
	if tbl.MappedPages() != 1 {
		t.Errorf("MappedPages = %d after remap", tbl.MappedPages())
	}
}

func TestUnmap(t *testing.T) {
	tbl, _ := newTable(t)
	tbl.Map(0x1000, 0x5000, FlagWritable)
	pa, flags, ok := tbl.Unmap(0x1000)
	if !ok || pa != 0x5000 || flags != FlagWritable {
		t.Errorf("Unmap = %#x,%v,%v", pa, flags, ok)
	}
	if _, _, ok := tbl.Translate(0x1000); ok {
		t.Error("page still translates after unmap")
	}
	if _, _, ok := tbl.Unmap(0x1000); ok {
		t.Error("second unmap succeeded")
	}
	if tbl.MappedPages() != 0 {
		t.Errorf("MappedPages = %d", tbl.MappedPages())
	}
}

func TestSetFlags(t *testing.T) {
	tbl, _ := newTable(t)
	tbl.Map(0x1000, 0x5000, FlagWritable)
	if !tbl.SetFlags(0x1000, FlagCOW) {
		t.Fatal("SetFlags failed")
	}
	pa, flags, _ := tbl.Translate(0x1000)
	if pa != 0x5000 || flags != FlagCOW {
		t.Errorf("pa=%#x flags=%v", pa, flags)
	}
	if tbl.SetFlags(0x2000, 0) {
		t.Error("SetFlags on unmapped page succeeded")
	}
}

func TestNodeAllocationShape(t *testing.T) {
	tbl, mem := newTable(t)
	if tbl.NodeCount() != 1 {
		t.Fatalf("fresh table has %d nodes", tbl.NodeCount())
	}
	tbl.Map(0x1000, 0x5000, 0)
	// Root + 3 intermediate/leaf nodes.
	if tbl.NodeCount() != 4 {
		t.Errorf("one mapping created %d nodes, want 4", tbl.NodeCount())
	}
	// A second page in the same leaf node must not allocate.
	tbl.Map(0x2000, 0x6000, 0)
	if tbl.NodeCount() != 4 {
		t.Errorf("adjacent mapping created nodes: %d", tbl.NodeCount())
	}
	// A distant address allocates a fresh path.
	tbl.Map(0x7f0000000000, 0x7000, 0)
	if tbl.NodeCount() != 7 {
		t.Errorf("distant mapping: %d nodes, want 7", tbl.NodeCount())
	}
	// The nodes are all the memory holds: data addresses are not allocated.
	if got := mem.UsedFrames(); got != uint64(tbl.NodeCount()) {
		t.Errorf("physmem holds %d frames, table has %d nodes", got, tbl.NodeCount())
	}
}

func TestWalkFullTrace(t *testing.T) {
	tbl, _ := newTable(t)
	va := arch.VirtAddr(0x7f0012345000)
	tbl.Map(va, 0xABC000, 0)
	accesses, pa, found := walk(tbl, va+0x10)
	if !found {
		t.Fatal("walk did not find mapping")
	}
	if pa != 0xABC010 {
		t.Errorf("walk pa = %#x", pa)
	}
	if len(accesses) != arch.PTLevels {
		t.Fatalf("walk took %d accesses, want %d", len(accesses), arch.PTLevels)
	}
	for i, a := range accesses {
		wantLevel := arch.PTLevels - i
		if a.Level != wantLevel {
			t.Errorf("access %d level = %d, want %d", i, a.Level, wantLevel)
		}
	}
	// Root access must be inside the root node at the right index.
	wantRoot := tbl.Root() + arch.PhysAddr(va.PTIndex(4)*arch.PTEBytes)
	if accesses[0].EntryAddr != wantRoot {
		t.Errorf("root entry addr = %#x, want %#x", accesses[0].EntryAddr, wantRoot)
	}
}

func TestWalkStopsAtNonPresent(t *testing.T) {
	tbl, _ := newTable(t)
	accesses, _, found := walk(tbl, 0x1000)
	if found {
		t.Fatal("walk found mapping in empty table")
	}
	if len(accesses) != 1 {
		t.Errorf("walk of empty table took %d accesses, want 1 (root only)", len(accesses))
	}
}

func TestWalkFromPWCNode(t *testing.T) {
	tbl, _ := newTable(t)
	va := arch.VirtAddr(0x7f0012345000)
	tbl.Map(va, 0xABC000, 0)
	_, _, _, leafNode := tbl.Lookup(va)
	if leafNode == arch.NoPhysAddr {
		t.Fatal("Lookup found no leaf node")
	}
	accesses, pa, _, found := tbl.WalkAppend(nil, va, 1, leafNode)
	if !found || pa != 0xABC000 {
		t.Fatalf("PWC walk: pa=%#x found=%v", pa, found)
	}
	if len(accesses) != 1 {
		t.Errorf("PWC walk from leaf node took %d accesses, want 1", len(accesses))
	}
	if accesses[0].Level != 1 {
		t.Errorf("access level = %d", accesses[0].Level)
	}
}

func TestLookupLeafNode(t *testing.T) {
	tbl, _ := newTable(t)
	va := arch.VirtAddr(0x7f0012345000)
	tbl.Map(va, 0xABC000, 0)
	accesses, _, _ := walk(tbl, va)
	want := accesses[len(accesses)-1].EntryAddr.PageBase()
	if _, _, _, node := tbl.Lookup(va); node != want {
		t.Errorf("leaf node = %#x, want %#x", node, want)
	}
	// An unmapped page in a populated leaf node still reports the node.
	if _, _, ok, node := tbl.Lookup(va + arch.PageSize); ok || node != want {
		t.Errorf("sibling: ok=%v leaf node = %#x, want %#x", ok, node, want)
	}
	if _, _, _, node := tbl.Lookup(0x1000); node != arch.NoPhysAddr {
		t.Error("leaf node exists for unmapped region")
	}
}

func TestLeafEntryAddrPacking(t *testing.T) {
	// Leaf entries of 8 adjacent pages must occupy one cache block and be
	// consecutive — the Figure 3 property.
	tbl, _ := newTable(t)
	base := arch.VirtAddr(0x7f0000000000)
	for i := 0; i < 8; i++ {
		tbl.Map(base+arch.VirtAddr(i*arch.PageSize), arch.PhysAddr(0x100000+i*arch.PageSize), 0)
	}
	first, ok := tbl.LeafEntryAddr(base)
	if !ok {
		t.Fatal("LeafEntryAddr failed")
	}
	for i := 0; i < 8; i++ {
		ea, ok := tbl.LeafEntryAddr(base + arch.VirtAddr(i*arch.PageSize))
		if !ok {
			t.Fatalf("leaf entry %d missing", i)
		}
		if ea != first+arch.PhysAddr(i*arch.PTEBytes) {
			t.Errorf("leaf entry %d at %#x, want consecutive from %#x", i, ea, first)
		}
		if ea.CacheBlock() != first.CacheBlock() {
			t.Errorf("leaf entry %d in different cache block", i)
		}
	}
}

func TestForEachMappedOrdered(t *testing.T) {
	tbl, _ := newTable(t)
	vas := []arch.VirtAddr{0x7f0000001000, 0x1000, 0x7f0000000000, 0x5000}
	for i, va := range vas {
		tbl.Map(va, arch.PhysAddr(0x10000*(i+1)), 0)
	}
	var got []arch.VirtAddr
	tbl.ForEachMapped(func(va arch.VirtAddr, pa arch.PhysAddr, _ Flags) bool {
		got = append(got, va)
		return true
	})
	want := []arch.VirtAddr{0x1000, 0x5000, 0x7f0000000000, 0x7f0000001000}
	if len(got) != len(want) {
		t.Fatalf("visited %d pages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("visit %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestForEachMappedEarlyStop(t *testing.T) {
	tbl, _ := newTable(t)
	for i := 0; i < 10; i++ {
		tbl.Map(arch.VirtAddr(0x1000*(i+1)), arch.PhysAddr(0x100000), 0)
	}
	n := 0
	tbl.ForEachMapped(func(arch.VirtAddr, arch.PhysAddr, Flags) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d, want 3", n)
	}
}

func TestDestroyReleasesNodes(t *testing.T) {
	mem := physmem.New(16 << 20)
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Map(0x1000, 0x5000, 0)
	tbl.Map(0x7f0000000000, 0x6000, 0)
	if mem.UsedFrames() == 0 {
		t.Fatal("no PT frames allocated")
	}
	tbl.Destroy()
	if got := mem.UsedFrames(); got != 0 {
		t.Errorf("%d PT frames remain after Destroy", got)
	}
}

// TestDestroyFreesInAscendingFrameOrder pins Destroy's free order. The
// buddy allocator's free lists are LIFO, so the order in which a table's
// node frames go back decides every later allocation. Here the nodes get
// frames in descending address order, and Destroy must leave the
// allocator as freeing those frames by hand in ascending order does.
func TestDestroyFreesInAscendingFrameOrder(t *testing.T) {
	build := func() (*physmem.Memory, *Table, []arch.PhysAddr) {
		mem := physmem.New(16 << 20)
		var frames []arch.PhysAddr
		for i := 0; i < 32; i++ {
			pa, ok := mem.AllocFrame(physmem.KindUser)
			if !ok {
				t.Fatal("out of memory")
			}
			frames = append(frames, pa)
		}
		// Free every other frame in ascending order: no two of them are
		// buddies, so none coalesce, and the last freed is reused first.
		for i := 0; i < len(frames); i += 2 {
			mem.FreeBlock(frames[i])
		}
		tbl, err := New(mem)
		if err != nil {
			t.Fatal(err)
		}
		for _, va := range []arch.VirtAddr{0x1000, 0x40000000, 0x7f0000000000, 0x7f0000200000} {
			if err := tbl.Map(va, 0x5000, 0); err != nil {
				t.Fatal(err)
			}
		}
		var nodes []arch.PhysAddr
		for _, n := range tbl.nodes {
			nodes = append(nodes, n.pa)
		}
		return mem, tbl, nodes
	}

	mem, tbl, nodes := build()
	if slices.IsSorted(nodes) {
		t.Fatalf("node frames %#x were allocated in ascending order; the test needs another", nodes)
	}
	tbl.Destroy()
	ref, _, refNodes := build()
	slices.Sort(refNodes)
	for _, pa := range refNodes {
		ref.FreeBlock(pa)
	}
	for i := 0; i < 2*len(nodes); i++ {
		got, _ := mem.AllocFrame(physmem.KindUser)
		want, _ := ref.AllocFrame(physmem.KindUser)
		if got != want {
			t.Fatalf("allocation %d after Destroy got %#x, after ascending frees %#x", i, got, want)
		}
	}
}

func TestMapFailsWhenMemoryExhausted(t *testing.T) {
	mem := physmem.New(8 * arch.PageSize)
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	// Consume everything.
	for {
		if _, ok := mem.AllocFrame(physmem.KindUser); !ok {
			break
		}
	}
	if err := tbl.Map(0x7f0000000000, 0x1000, 0); err == nil {
		t.Error("Map succeeded with no memory for nodes")
	}
}

// Property: Map then Translate round-trips for arbitrary canonical VAs and
// page-aligned PAs.
func TestQuickMapTranslate(t *testing.T) {
	mem := physmem.New(64 << 20)
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	mapped := map[uint64]arch.PhysAddr{}
	f := func(rawVA, rawPA uint64) bool {
		va := arch.VirtAddr(rawVA & ((1 << arch.VABits) - 1)).PageBase()
		pa := arch.PhysAddr(rawPA & 0xFFFFFF000)
		if err := tbl.Map(va, pa, 0); err != nil {
			return true // exhaustion is not a correctness failure here
		}
		mapped[uint64(va)] = pa
		got, _, ok := tbl.Translate(va)
		return ok && got == pa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// All earlier mappings still intact.
	for va, pa := range mapped {
		got, _, ok := tbl.Translate(arch.VirtAddr(va))
		if !ok || got != pa {
			t.Errorf("mapping %#x lost: got %#x,%v", va, got, ok)
		}
	}
}

func BenchmarkMap(b *testing.B) {
	mem := physmem.New(256 << 20)
	tbl, _ := New(mem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(uint64(i%1_000_000) << arch.PageShift)
		if err := tbl.Map(va, 0x100000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalk(b *testing.B) {
	mem := physmem.New(64 << 20)
	tbl, _ := New(mem)
	for i := 0; i < 1024; i++ {
		tbl.Map(arch.VirtAddr(i)<<arch.PageShift, 0x100000, 0)
	}
	var buf []Access
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, _, _ = tbl.WalkAppend(buf[:0], arch.VirtAddr(i%1024)<<arch.PageShift, tbl.Levels(), tbl.Root())
	}
}

// BenchmarkPipelineTable measures the page-table layer alone: a table
// holding 8K 4KB pages at pseudo-random addresses over 1 GB, queried at
// those pages in a fixed pseudo-random order. One op is one query: a
// Lookup, a WalkAppend from the root, or a WalkAppend from the page's
// level-1 node, as after a page-walk-cache hit.
func BenchmarkPipelineTable(b *testing.B) {
	const pages = 8 << 10
	tbl, err := New(physmem.New(64 << 20))
	if err != nil {
		b.Fatal(err)
	}
	vas := make([]arch.VirtAddr, pages)
	leaves := make([]arch.PhysAddr, pages)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range vas {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vas[i] = arch.VirtAddr(x%(1<<30>>arch.PageShift)) << arch.PageShift
		if err := tbl.Map(vas[i], arch.PhysAddr(i+1)<<arch.PageShift, FlagWritable); err != nil {
			b.Fatal(err)
		}
	}
	for i, va := range vas {
		_, _, _, leaves[i] = tbl.Lookup(va)
	}
	var buf []Access
	var sink arch.PhysAddr
	b.Run("Lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pa, _, _, _ := tbl.Lookup(vas[i%pages])
			sink += pa
		}
	})
	b.Run("WalkRoot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var pa arch.PhysAddr
			buf, pa, _, _ = tbl.WalkAppend(buf[:0], vas[i%pages], tbl.Levels(), tbl.Root())
			sink += pa
		}
	})
	b.Run("WalkLeaf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var pa arch.PhysAddr
			buf, pa, _, _ = tbl.WalkAppend(buf[:0], vas[i%pages], 1, leaves[i%pages])
			sink += pa
		}
	})
	if sink == 0 {
		b.Fatal("no query translated")
	}
}

func TestFiveLevelTable(t *testing.T) {
	mem := physmem.New(16 << 20)
	tbl, err := NewWithLevels(mem, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Levels() != 5 {
		t.Fatalf("Levels = %d", tbl.Levels())
	}
	// A 57-bit address exercises the fifth level.
	va := arch.VirtAddr(0x1AB_7f00_1234_5000)
	if err := tbl.Map(va, 0x123000, FlagWritable); err != nil {
		t.Fatal(err)
	}
	pa, _, ok := tbl.Translate(va + 0x42)
	if !ok || pa != 0x123042 {
		t.Fatalf("Translate = %#x,%v", pa, ok)
	}
	// Root + 4 lower nodes.
	if tbl.NodeCount() != 5 {
		t.Errorf("NodeCount = %d, want 5", tbl.NodeCount())
	}
	accesses, _, found := walk(tbl, va)
	if !found || len(accesses) != 5 {
		t.Errorf("walk: found=%v accesses=%d, want 5", found, len(accesses))
	}
	if accesses[0].Level != 5 || accesses[4].Level != 1 {
		t.Errorf("levels %d..%d", accesses[0].Level, accesses[4].Level)
	}
	// Two VAs differing only in level-5 index are distinct.
	va2 := va + (1 << 48)
	tbl.Map(va2, 0x456000, 0)
	pa1, _, _ := tbl.Translate(va)
	pa2, _, _ := tbl.Translate(va2)
	if pa1 == pa2 {
		t.Error("level-5 index ignored")
	}
}

func TestNewWithLevelsValidation(t *testing.T) {
	mem := physmem.New(1 << 20)
	for _, bad := range []int{0, 1, 3, 6} {
		if _, err := NewWithLevels(mem, bad); err == nil {
			t.Errorf("depth %d accepted", bad)
		}
	}
}

func TestWalkBadStartLevelPanics(t *testing.T) {
	tbl, _ := newTable(t)
	defer func() {
		if recover() == nil {
			t.Error("bad start level did not panic")
		}
	}()
	tbl.WalkAppend(nil, 0x1000, 9, tbl.Root())
}

func TestWalkUnknownNodePanics(t *testing.T) {
	tbl, _ := newTable(t)
	defer func() {
		if recover() == nil {
			t.Error("unknown node did not panic")
		}
	}()
	tbl.WalkAppend(nil, 0x1000, 1, 0xDEAD000)
}

func TestSetFlagsOnLargeRegionFails(t *testing.T) {
	mem := physmem.New(64 << 20)
	tbl, _ := New(mem)
	tbl.MapLarge(0x200000, 0x800000, FlagWritable)
	// SetFlags targets 4KB leaves; a large region has none.
	if tbl.SetFlags(0x200000, FlagCOW) {
		t.Error("SetFlags succeeded on a large-mapped region")
	}
	// Unmap (4KB) on a large region also misses.
	if _, _, ok := tbl.Unmap(0x200000); ok {
		t.Error("4KB Unmap succeeded on a large-mapped region")
	}
}
