package pagetable

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

// modelPage is one mapping of the reference model.
type modelPage struct {
	pa    arch.PhysAddr
	flags Flags
	dirty bool
}

// model is a plain map of what a Table should hold: 4KB mappings by page
// and 2MB mappings by region base.
type model struct {
	pages map[arch.VirtAddr]modelPage
	large map[arch.VirtAddr]modelPage
}

func regionOf(va arch.VirtAddr) arch.VirtAddr { return va &^ LargePageMask }

// translate is the model's answer for the page-aligned va.
func (m *model) translate(va arch.VirtAddr) (modelPage, bool) {
	if l, ok := m.large[regionOf(va)]; ok {
		l.pa += arch.PhysAddr(va - regionOf(va))
		return l, true
	}
	p, ok := m.pages[va]
	return p, ok
}

// TestDescentMatchesModel drives random operations over a few 2MB regions
// of 4- and 5-level tables and, after each one, checks every query built on
// the table's single descent against the model: Lookup and Translate for
// every page, a root-started WalkAppend against Lookup, AnyMappedAt for every
// 8-page group and region, the three visitors, and the node count against
// the memory's page-table frames.
//
// A twin table takes the same operations, except that where the table
// maps through a stop (MapAt with the stop of a root walk of va, with or
// without one more operation between the walk and the map) the twin maps
// with plain Map. Both must match the model, hold as many nodes, and put
// every page's leaf entry at the same address: a map from a current stop
// allocates exactly the nodes a root descent would, and one from an
// outdated stop descends from the root.
func TestDescentMatchesModel(t *testing.T) {
	for _, levels := range []int{4, 5} {
		t.Run(fmt.Sprintf("levels=%d", levels), func(t *testing.T) {
			regions := []arch.VirtAddr{0, 0x200000, 0x40000000, 0x7f0000000000}
			if levels == 5 {
				regions = append(regions, 0x1ab7f0000000000)
			}
			newTable := func() (*Table, *model) {
				tbl, err := NewWithLevels(physmem.New(16<<20), levels)
				if err != nil {
					t.Fatal(err)
				}
				return tbl, &model{pages: map[arch.VirtAddr]modelPage{}, large: map[arch.VirtAddr]modelPage{}}
			}
			tbl, m := newTable()
			twin, twinModel := newTable()
			rng := rand.New(rand.NewSource(int64(levels)))
			// The table and its twin draw their operations from two
			// generators with one seed, so they make the same draws.
			opRng := rand.New(rand.NewSource(int64(levels) + 100))
			twinRng := rand.New(rand.NewSource(int64(levels) + 100))
			both := func(region, va arch.VirtAddr, flags Flags) string {
				op := applyRandomOp(t, tbl, m, opRng, region, va, flags)
				applyRandomOp(t, twin, twinModel, twinRng, region, va, flags)
				return op
			}
			// A few pages per region, so operations collide; 511 sits at
			// the far end of a leaf node.
			slots := []int{0, 1, 2, 7, 8, 9, 63, 64, 511}
			pick := func(region arch.VirtAddr) arch.VirtAddr {
				return region + arch.VirtAddr(slots[rng.Intn(len(slots))]<<arch.PageShift)
			}
			var promoted, demoted, fromStop, fromRoot int
			for step := 0; step < 300; step++ {
				region := regions[rng.Intn(len(regions))]
				va := pick(region)
				large := len(m.large)
				op := both(region, va, Flags(rng.Intn(4)))
				switch {
				case len(m.large) > large:
					promoted++
				case len(m.large) < large:
					demoted++
				}
				if rng.Intn(2) == 0 {
					va = pick(region)
					stop := stopOf(tbl, va)
					op += ", walk"
					if rng.Intn(2) == 0 {
						op += ", " + both(region, pick(region), Flags(rng.Intn(4)))
					}
					if stop.changes == tbl.Changes() && stop.level < levels {
						fromStop++
					} else {
						fromRoot++
					}
					_, isLarge := m.large[region]
					pa := arch.PhysAddr(1+rng.Intn(1<<20)) << arch.PageShift
					flags := Flags(rng.Intn(4))
					err, twinErr := tbl.MapAt(stop, va, pa, flags), twin.Map(va, pa, flags)
					if (err != nil) != isLarge || (twinErr != nil) != isLarge {
						t.Fatalf("step %d: MapAt(%#x) err = %v, Map err = %v, large region %v", step, uint64(va), err, twinErr, isLarge)
					}
					if !isLarge {
						m.pages[va] = modelPage{pa: pa, flags: flags}
						twinModel.pages[va] = modelPage{pa: pa, flags: flags}
					}
					op += ", MapAt"
				}
				where := fmt.Sprintf("step %d (%s %#x)", step, op, uint64(va))
				checkAgainstModel(t, tbl, m, regions, where)
				checkAgainstModel(t, twin, twinModel, regions, where+" twin")
				if tbl.NodeCount() != twin.NodeCount() {
					t.Fatalf("%s: NodeCount = %d, twin %d", where, tbl.NodeCount(), twin.NodeCount())
				}
				for _, region := range regions {
					for i := 0; i < arch.PTEntriesPerNode; i++ {
						page := region + arch.VirtAddr(i<<arch.PageShift)
						ea, ok := tbl.LeafEntryAddr(page)
						twinEA, twinOK := twin.LeafEntryAddr(page)
						if ea != twinEA || ok != twinOK {
							t.Fatalf("%s: LeafEntryAddr(%#x) = %#x,%v, twin %#x,%v", where, uint64(page), ea, ok, twinEA, twinOK)
						}
					}
				}
			}
			if promoted == 0 || demoted == 0 {
				t.Errorf("op mix made %d large mappings and demoted %d; want both", promoted, demoted)
			}
			if fromStop == 0 || fromRoot == 0 {
				t.Errorf("MapAt started %d times below the root at a current stop and %d times at the root; want both", fromStop, fromRoot)
			}
		})
	}
}

// applyRandomOp performs one random operation on tbl and m and checks its
// direct result. It returns the operation's name.
func applyRandomOp(t *testing.T, tbl *Table, m *model, rng *rand.Rand, region, va arch.VirtAddr, flags Flags) string {
	t.Helper()
	_, isLarge := m.large[region]
	cur, mapped := m.pages[va]
	switch op := rng.Intn(8); op {
	case 0, 1:
		pa := arch.PhysAddr(1+rng.Intn(1<<20)) << arch.PageShift
		if err := tbl.Map(va, pa, flags); (err != nil) != isLarge {
			t.Fatalf("Map(%#x) err = %v, large region %v", uint64(va), err, isLarge)
		}
		if !isLarge {
			m.pages[va] = modelPage{pa: pa, flags: flags}
		}
		return "Map"
	case 2:
		pa, f, ok := tbl.Unmap(va)
		if ok != mapped || (ok && (pa != cur.pa || f != cur.flags)) {
			t.Fatalf("Unmap(%#x) = %#x,%v,%v, model %+v,%v", uint64(va), pa, f, ok, cur, mapped)
		}
		delete(m.pages, va)
		return "Unmap"
	case 3:
		// Empty the region first half the time, so MapLarge can succeed.
		if rng.Intn(2) == 0 {
			for p := range m.pages {
				if regionOf(p) == region {
					tbl.Unmap(p)
					delete(m.pages, p)
				}
			}
		}
		busy := isLarge
		for p := range m.pages {
			busy = busy || regionOf(p) == region
		}
		pa := arch.PhysAddr(0x40000000 + rng.Intn(64)*LargePageBytes)
		if err := tbl.MapLarge(region, pa, flags); (err != nil) != busy {
			t.Fatalf("MapLarge(%#x) err = %v, region busy %v", uint64(region), err, busy)
		}
		if !busy {
			m.large[region] = modelPage{pa: pa, flags: flags}
		}
		return "MapLarge"
	case 4:
		if err := tbl.Demote(va); (err == nil) != isLarge {
			t.Fatalf("Demote(%#x) err = %v, large region %v", uint64(va), err, isLarge)
		}
		if l, ok := m.large[region]; ok {
			for i := 0; i < arch.PTEntriesPerNode; i++ {
				off := arch.VirtAddr(i << arch.PageShift)
				m.pages[region+off] = modelPage{pa: l.pa + arch.PhysAddr(off), flags: l.flags}
			}
			delete(m.large, region)
		}
		return "Demote"
	case 5:
		if got := tbl.SetFlags(va, flags); got != mapped {
			t.Fatalf("SetFlags(%#x) = %v, model mapped %v", uint64(va), got, mapped)
		}
		if mapped {
			// Rewriting the entry drops its dirty bit.
			m.pages[va] = modelPage{pa: cur.pa, flags: flags}
		}
		return "SetFlags"
	case 6:
		want := mapped && !cur.dirty
		if got := tbl.MarkDirty(va); got != want {
			t.Fatalf("MarkDirty(%#x) = %v, want %v", uint64(va), got, want)
		}
		if mapped {
			cur.dirty = true
			m.pages[va] = cur
		}
		return "MarkDirty"
	default:
		want := mapped && cur.dirty
		if got := tbl.ClearDirty(va); got != want {
			t.Fatalf("ClearDirty(%#x) = %v, want %v", uint64(va), got, want)
		}
		if mapped {
			cur.dirty = false
			m.pages[va] = cur
		}
		return "ClearDirty"
	}
}

// checkAgainstModel compares every read of tbl with m over all pages of
// regions.
func checkAgainstModel(t *testing.T, tbl *Table, m *model, regions []arch.VirtAddr, where string) {
	t.Helper()
	var buf []Access
	for _, region := range regions {
		for i := 0; i < arch.PTEntriesPerNode; i++ {
			va := region + arch.VirtAddr(i<<arch.PageShift)
			want, wantOK := m.translate(va)
			pa, flags, ok, leafNode := tbl.Lookup(va + 0x10)
			if ok != wantOK || (ok && (pa != want.pa+0x10 || flags != want.flags)) {
				t.Fatalf("%s: Lookup(%#x) = %#x,%v,%v, model %+v,%v", where, uint64(va), pa, flags, ok, want, wantOK)
			}
			if tpa, tflags, tok := tbl.Translate(va + 0x10); tpa != pa || tflags != flags || tok != ok {
				t.Fatalf("%s: Translate(%#x) disagrees with Lookup", where, uint64(va))
			}
			var wpa arch.PhysAddr
			var wflags Flags
			var found bool
			buf, wpa, wflags, found = tbl.WalkAppend(buf[:0], va+0x10, tbl.Levels(), tbl.Root())
			if found != ok || wpa != pa || wflags != flags {
				t.Fatalf("%s: WalkAppend(%#x) = %#x,%v,%v, Lookup %#x,%v,%v", where, uint64(va), wpa, wflags, found, pa, flags, ok)
			}
			wantNode := arch.NoPhysAddr
			if last := buf[len(buf)-1]; last.Level == 1 {
				wantNode = last.EntryAddr.PageBase()
			}
			if leafNode != wantNode {
				t.Fatalf("%s: Lookup(%#x) leaf node %#x, walk ended in %#x", where, uint64(va), leafNode, wantNode)
			}
		}
		anyIn := func(va arch.VirtAddr, pages int) bool {
			for i := 0; i < pages; i++ {
				if _, ok := m.translate(va + arch.VirtAddr(i<<arch.PageShift)); ok {
					return true
				}
			}
			return false
		}
		for g := 0; g < arch.PTEntriesPerNode; g += 8 {
			va := region + arch.VirtAddr(g<<arch.PageShift)
			if got, want := tbl.AnyMappedAt(Stop{}, va, 8), anyIn(va, 8); got != want {
				t.Fatalf("%s: AnyMappedAt(%#x, 8) = %v, want %v", where, uint64(va), got, want)
			}
		}
		if got, want := tbl.AnyMappedAt(Stop{}, region, arch.PTEntriesPerNode), anyIn(region, arch.PTEntriesPerNode); got != want {
			t.Fatalf("%s: AnyMappedAt(region %#x) = %v, want %v", where, uint64(region), got, want)
		}
	}

	type mapping struct {
		va    arch.VirtAddr
		pa    arch.PhysAddr
		flags Flags
	}
	var wantMapped []mapping
	var wantDirty, wantLarge []arch.VirtAddr
	for va, p := range m.pages {
		wantMapped = append(wantMapped, mapping{va, p.pa, p.flags})
		if p.dirty {
			wantDirty = append(wantDirty, va)
		}
	}
	for region, l := range m.large {
		wantLarge = append(wantLarge, region)
		for i := 0; i < arch.PTEntriesPerNode; i++ {
			off := arch.VirtAddr(i << arch.PageShift)
			wantMapped = append(wantMapped, mapping{region + off, l.pa + arch.PhysAddr(off), l.flags})
		}
	}
	sort.Slice(wantMapped, func(i, j int) bool { return wantMapped[i].va < wantMapped[j].va })
	slices.Sort(wantDirty)
	slices.Sort(wantLarge)

	var gotMapped []mapping
	tbl.ForEachMapped(func(va arch.VirtAddr, pa arch.PhysAddr, flags Flags) bool {
		gotMapped = append(gotMapped, mapping{va, pa, flags})
		return true
	})
	if !slices.Equal(gotMapped, wantMapped) {
		t.Fatalf("%s: ForEachMapped yielded %d entries, model has %d (or order/content differs)", where, len(gotMapped), len(wantMapped))
	}
	var gotDirty, gotLarge []arch.VirtAddr
	tbl.ForEachDirty(func(va arch.VirtAddr) bool { gotDirty = append(gotDirty, va); return true })
	tbl.ForEachLarge(func(va arch.VirtAddr) bool { gotLarge = append(gotLarge, va); return true })
	if !slices.Equal(gotDirty, wantDirty) {
		t.Fatalf("%s: ForEachDirty = %x, model %x", where, gotDirty, wantDirty)
	}
	if !slices.Equal(gotLarge, wantLarge) {
		t.Fatalf("%s: ForEachLarge = %x, model %x", where, gotLarge, wantLarge)
	}
	if want := uint64(len(m.pages) + arch.PTEntriesPerNode*len(m.large)); tbl.MappedPages() != want {
		t.Fatalf("%s: MappedPages = %d, model %d", where, tbl.MappedPages(), want)
	}
	if tbl.LargeMappings() != uint64(len(m.large)) {
		t.Fatalf("%s: LargeMappings = %d, model %d", where, tbl.LargeMappings(), len(m.large))
	}
	// The table's nodes are all the memory holds: its data addresses are
	// not allocated.
	if frames := tbl.mem.UsedFrames(); uint64(tbl.NodeCount()) != frames {
		t.Fatalf("%s: NodeCount = %d, memory holds %d frames", where, tbl.NodeCount(), frames)
	}
}
