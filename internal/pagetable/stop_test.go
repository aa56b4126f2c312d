package pagetable

import (
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

// stopOf is the stop of an uncached walk of va.
func stopOf(tbl *Table, va arch.VirtAddr) Stop {
	walk, _, _, _ := tbl.WalkAppend(nil, va, tbl.Levels(), tbl.Root())
	return tbl.StopAt(va, walk, tbl.Changes())
}

// TestChangesCountWalkVisibleWrites pins which writes move the change
// count: every Map, MapLarge and Demote, each Unmap and SetFlags that finds
// its entry, and neither dirty-bit write, which no walk reads.
func TestChangesCountWalkVisibleWrites(t *testing.T) {
	tbl, _ := largeTable(t)
	const va, region = arch.VirtAddr(0x7f0000001000), arch.VirtAddr(0x7f0000200000)
	steps := []struct {
		name  string
		op    func()
		moves bool
	}{
		{"Map", func() { tbl.Map(va, 0x1000, FlagWritable) }, true},
		{"Map over the same page", func() { tbl.Map(va, 0x2000, FlagWritable) }, true},
		{"MarkDirty", func() { tbl.MarkDirty(va) }, false},
		{"ClearDirty", func() { tbl.ClearDirty(va) }, false},
		{"SetFlags", func() { tbl.SetFlags(va, 0) }, true},
		{"SetFlags of an absent page", func() { tbl.SetFlags(va+arch.PageSize, 0) }, false},
		{"Unmap", func() { tbl.Unmap(va) }, true},
		{"Unmap of an absent page", func() { tbl.Unmap(va) }, false},
		{"MapLarge", func() { tbl.MapLarge(region, 0x800000, FlagWritable) }, true},
		{"Demote", func() { tbl.Demote(region) }, true},
		{"Demote of a 4KB region", func() { tbl.Demote(region) }, false},
		{"translations and walks", func() {
			tbl.Translate(va)
			tbl.AnyMappedAt(Stop{}, region, 8)
			stopOf(tbl, va)
		}, false},
	}
	for _, s := range steps {
		before := tbl.Changes()
		s.op()
		if moved := tbl.Changes() != before; moved != s.moves {
			t.Errorf("%s: change count moved %v, want %v", s.name, moved, s.moves)
		}
	}
}

// TestFailedMapOutdatesStops: a Map that links a node and then finds no
// frame for the next one still moves the count, so the stop of a walk
// taken before it is outdated, and a MapAt from that stop links only the
// node still missing.
func TestFailedMapOutdatesStops(t *testing.T) {
	mem := physmem.New(8 * arch.PageSize)
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	// Leave two frames free: Map links a level-3 and a level-2 node, then
	// finds no frame for the leaf node.
	var held []arch.PhysAddr
	for mem.FreeFrames() > 2 {
		pa, _ := mem.AllocFrame(physmem.KindKernel)
		held = append(held, pa)
	}
	va := arch.VirtAddr(0x7f0000000000)
	stop := stopOf(tbl, va)
	if err := tbl.Map(va, 0x1000, 0); err == nil {
		t.Fatal("Map succeeded with no frame for the leaf node")
	}
	if tbl.Changes() == stop.changes || tbl.NodeCount() != 3 {
		t.Fatalf("failed Map: count moved %v, %d nodes; want moved and 3", tbl.Changes() != stop.changes, tbl.NodeCount())
	}
	mem.FreeBlock(held[0])
	if err := tbl.MapAt(stop, va, 0x1000, 0); err != nil {
		t.Fatalf("MapAt: %v", err)
	}
	if pa, _, ok := tbl.Translate(va); !ok || pa != 0x1000 || tbl.NodeCount() != 4 {
		t.Errorf("after MapAt: %#x,%v with %d nodes; want 0x1000 with 4", uint64(pa), ok, tbl.NodeCount())
	}
}

// TestStopInFreedLeafNodeIsOutdated: MapLarge over a region whose 4KB
// pages were all unmapped frees the region's empty leaf node, so a stop
// taken in that node is outdated. TranslateAt then sees the large mapping
// and MapAt fails as Map does, where a descent from the stop would read
// and write a frame the table no longer holds.
func TestStopInFreedLeafNodeIsOutdated(t *testing.T) {
	tbl, _ := largeTable(t)
	region := arch.VirtAddr(0x7f0000000000)
	va := region + 5*arch.PageSize
	if err := tbl.Map(va, 0x1000, 0); err != nil {
		t.Fatal(err)
	}
	tbl.Unmap(va)
	stop := stopOf(tbl, va)
	if stop.level != 1 {
		t.Fatalf("walk stopped at level %d, want the empty leaf node", stop.level)
	}
	if got, _, ok := tbl.TranslateAt(stop, va); ok {
		t.Fatalf("TranslateAt of the unmapped page = %#x", uint64(got))
	}
	if err := tbl.MapLarge(region, 0x800000, FlagWritable); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := tbl.TranslateAt(stop, va); !ok || got != 0x800000+5*arch.PageSize {
		t.Errorf("TranslateAt after MapLarge = %#x,%v, want the large mapping", uint64(got), ok)
	}
	if tbl.AnyMappedAt(stop, va, 8) != true {
		t.Error("AnyMappedAt after MapLarge = false")
	}
	if err := tbl.MapAt(stop, va, 0x1000, 0); err == nil {
		t.Error("MapAt into a large mapping succeeded")
	}
}

// TestStopOfAnotherAddress: a stop is used only for an address under its
// node; any other address descends from the root.
func TestStopOfAnotherAddress(t *testing.T) {
	tbl, _ := largeTable(t)
	va := arch.VirtAddr(0x7f0000000000)
	if err := tbl.Map(va, 0x1000, 0); err != nil {
		t.Fatal(err)
	}
	stop := stopOf(tbl, va)
	far := va + LargePageBytes + arch.PageSize
	if err := tbl.MapAt(stop, far, 0x2000, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		va arch.VirtAddr
		pa arch.PhysAddr
	}{{va, 0x1000}, {far, 0x2000}} {
		if pa, _, ok := tbl.Translate(c.va); !ok || pa != c.pa {
			t.Errorf("Translate(%#x) = %#x,%v, want %#x", uint64(c.va), uint64(pa), ok, uint64(c.pa))
		}
	}
	if _, _, ok := tbl.TranslateAt(stopOf(tbl, va), far+arch.PageSize); ok {
		t.Error("TranslateAt from another region's stop found an unmapped page")
	}
	if got, _, _ := tbl.TranslateAt(Stop{}, far); got != 0x2000 {
		t.Errorf("TranslateAt from the zero Stop = %#x, want 0x2000", uint64(got))
	}
}

// TestStopAtRefusesOutdatedWalks: StopAt gives the zero Stop for a walk
// the table has changed since, and for a walk whose last entry is not the
// address's.
func TestStopAtRefusesOutdatedWalks(t *testing.T) {
	tbl, _ := largeTable(t)
	va := arch.VirtAddr(0x7f0000000000)
	changes := tbl.Changes()
	walk, _, _, _ := tbl.WalkAppend(nil, va, tbl.Levels(), tbl.Root())
	if tbl.StopAt(va, walk, changes) == (Stop{}) {
		t.Fatal("StopAt of a current walk is the zero Stop")
	}
	// The walk ended on va's root entry; the next 512GB has another.
	if tbl.StopAt(va+1<<39, walk, changes) != (Stop{}) {
		t.Error("StopAt accepted a walk that did not end on the address's entry")
	}
	if err := tbl.Map(va+LargePageBytes, 0x1000, 0); err != nil {
		t.Fatal(err)
	}
	if tbl.StopAt(va, walk, changes) != (Stop{}) {
		t.Error("StopAt accepted a walk the table has changed since")
	}
}
