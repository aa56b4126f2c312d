package pagetable

import (
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

func largeTable(t *testing.T) (*Table, *physmem.Memory) {
	t.Helper()
	mem := physmem.New(64 << 20)
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mem
}

func TestMapLargeTranslate(t *testing.T) {
	tbl, _ := largeTable(t)
	va := arch.VirtAddr(0x7f0000000000)
	pa := arch.PhysAddr(0x800000) // 2MB aligned
	if err := tbl.MapLarge(va, pa, FlagWritable); err != nil {
		t.Fatal(err)
	}
	// Any offset within the 2MB region translates.
	got, flags, ok := tbl.Translate(va + 0x123456)
	if !ok || got != pa+0x123456 || flags != FlagWritable {
		t.Errorf("Translate = %#x,%v,%v", got, flags, ok)
	}
	if !tbl.IsLargeMapped(va + 0x100000) {
		t.Error("IsLargeMapped = false")
	}
	if tbl.LargeMappings() != 1 {
		t.Errorf("LargeMappings = %d", tbl.LargeMappings())
	}
	if tbl.MappedPages() != 512 {
		t.Errorf("MappedPages = %d, want 512 (4KB equivalent)", tbl.MappedPages())
	}
}

func TestMapLargeValidation(t *testing.T) {
	tbl, _ := largeTable(t)
	if err := tbl.MapLarge(0x1000, 0x800000, 0); err == nil {
		t.Error("unaligned va accepted")
	}
	if err := tbl.MapLarge(0x200000, 0x801000, 0); err == nil {
		t.Error("unaligned pa accepted")
	}
	// 4KB mappings in the region block a large overlay.
	tbl.Map(0x400000, 0x5000, 0)
	if err := tbl.MapLarge(0x400000, 0x800000, 0); err == nil {
		t.Error("large overlay over 4KB mappings accepted")
	}
	// Double large mapping rejected.
	if err := tbl.MapLarge(0x800000, 0x800000, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapLarge(0x800000, 0xA00000, 0); err == nil {
		t.Error("double large mapping accepted")
	}
	// 4KB map inside a large region rejected.
	if err := tbl.Map(0x800000+0x1000, 0x9000, 0); err == nil {
		t.Error("4KB map inside large region accepted")
	}
}

func TestWalkLargeStopsAtLevel2(t *testing.T) {
	tbl, _ := largeTable(t)
	va := arch.VirtAddr(0x7f0000000000)
	tbl.MapLarge(va, 0x800000, 0)
	accesses, pa, found := walk(tbl, va+0x2345)
	if !found || pa != 0x802345 {
		t.Fatalf("walk: pa=%#x found=%v", pa, found)
	}
	if len(accesses) != 3 {
		t.Errorf("large-page walk took %d accesses, want 3 (levels 4,3,2)", len(accesses))
	}
	if accesses[len(accesses)-1].Level != 2 {
		t.Errorf("last access level = %d", accesses[len(accesses)-1].Level)
	}
}

func TestLargeMappingHasNoLeafNode(t *testing.T) {
	tbl, _ := largeTable(t)
	va := arch.VirtAddr(0x7f0000000000)
	tbl.MapLarge(va, 0x800000, 0)
	if _, _, ok, node := tbl.Lookup(va); !ok || node != arch.NoPhysAddr {
		t.Errorf("Lookup under a large mapping: ok=%v leaf node = %#x", ok, node)
	}
	if _, ok := tbl.LeafEntryAddr(va); ok {
		t.Error("LeafEntryAddr exists under a large mapping")
	}
}

func TestDemoteSplitsInto4KBMappings(t *testing.T) {
	tbl, _ := largeTable(t)
	va := arch.VirtAddr(0x200000)
	pa := arch.PhysAddr(0x800000)
	tbl.MapLarge(va, pa, FlagWritable)
	nodesBefore := tbl.NodeCount()
	if err := tbl.Demote(va + 0x5000); err != nil {
		t.Fatal(err)
	}
	if tbl.NodeCount() != nodesBefore+1 {
		t.Errorf("demote allocated %d nodes, want 1", tbl.NodeCount()-nodesBefore)
	}
	if tbl.IsLargeMapped(va) {
		t.Error("still large after demote")
	}
	if tbl.MappedPages() != 512 {
		t.Errorf("MappedPages = %d after demote", tbl.MappedPages())
	}
	// Every 4KB page translates to the same physical bytes as before.
	for i := 0; i < 512; i += 37 {
		got, flags, ok := tbl.Translate(va + arch.VirtAddr(i*arch.PageSize+7))
		want := pa + arch.PhysAddr(i*arch.PageSize+7)
		if !ok || got != want || flags != FlagWritable {
			t.Fatalf("page %d: %#x,%v,%v want %#x", i, got, flags, ok, want)
		}
	}
	// Individual pages can now be unmapped.
	if _, _, ok := tbl.Unmap(va + 3*arch.PageSize); !ok {
		t.Error("Unmap after demote failed")
	}
	if tbl.MappedPages() != 511 {
		t.Errorf("MappedPages = %d", tbl.MappedPages())
	}
	if err := tbl.Demote(va); err == nil {
		t.Error("double demote succeeded")
	}
}

func TestForEachMappedExpandsLargePages(t *testing.T) {
	tbl, _ := largeTable(t)
	tbl.MapLarge(0x200000, 0x800000, 0)
	tbl.Map(0x1000, 0x5000, 0)
	count := 0
	var largeSeen int
	tbl.ForEachMapped(func(va arch.VirtAddr, pa arch.PhysAddr, _ Flags) bool {
		count++
		if va >= 0x200000 && va < 0x400000 {
			largeSeen++
			wantPA := arch.PhysAddr(0x800000) + arch.PhysAddr(uint64(va)-0x200000)
			if pa != wantPA {
				t.Fatalf("va %#x → %#x, want %#x", uint64(va), pa, wantPA)
			}
		}
		return true
	})
	if count != 513 {
		t.Errorf("visited %d pages, want 513", count)
	}
	if largeSeen != 512 {
		t.Errorf("large pages visited %d, want 512", largeSeen)
	}
}

func TestLargePageWalkFromPWCGuarded(t *testing.T) {
	// A mixed table: 4KB pages in one 2MB region, a large page in another.
	tbl, _ := largeTable(t)
	tbl.Map(0x1000, 0x5000, 0)
	tbl.MapLarge(0x200000, 0x800000, 0)
	// Walk of the 4KB page still works from the PWC node.
	_, _, _, node := tbl.Lookup(0x1000)
	if node == arch.NoPhysAddr {
		t.Fatal("no leaf node for 4KB region")
	}
	accesses, pa, _, found := tbl.WalkAppend(nil, 0x1000, 1, node)
	if !found || pa != 0x5000 || len(accesses) != 1 {
		t.Errorf("PWC walk: %#x,%v,%d accesses", pa, found, len(accesses))
	}
}

func TestMapLargeReclaimsEmptyLeaf(t *testing.T) {
	tbl, mem := largeTable(t)
	va := arch.VirtAddr(0x200000)
	// Populate and then fully unmap 4KB pages in the region.
	for i := 0; i < 4; i++ {
		tbl.Map(va+arch.VirtAddr(i*arch.PageSize), arch.PhysAddr(0x5000+i*arch.PageSize), 0)
	}
	for i := 0; i < 4; i++ {
		tbl.Unmap(va + arch.VirtAddr(i*arch.PageSize))
	}
	nodes := tbl.NodeCount()
	ptFrames := mem.UsedFrames() // the table's nodes: its data addresses are not allocated
	if err := tbl.MapLarge(va, 0x800000, 0); err != nil {
		t.Fatalf("MapLarge over empty leaf: %v", err)
	}
	if tbl.NodeCount() != nodes-1 {
		t.Errorf("empty leaf not reclaimed: %d nodes, was %d", tbl.NodeCount(), nodes)
	}
	if got := mem.UsedFrames(); got != ptFrames-1 {
		t.Errorf("leaf frame not freed: %d PT frames, was %d", got, ptFrames)
	}
	pa, _, ok := tbl.Translate(va + 0x1000)
	if !ok || pa != 0x801000 {
		t.Errorf("Translate = %#x,%v", pa, ok)
	}
}
