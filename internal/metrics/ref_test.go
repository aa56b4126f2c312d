package metrics

import (
	"sort"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/physmem"
)

// refHostPTFragmentation is HostPTFragmentation as it was before the
// one-pass rewrite: a descent of the guest table per mapped page, a map of
// host blocks per gPTE block, and a float sum in ascending block order. It
// is the reference FuzzFragmentationMatchesReference diffs the metric
// against.
func refHostPTFragmentation(gpt, hpt *pagetable.Table) FragReport {
	type groupInfo struct {
		hostBlocks map[uint64]bool
		pages      int
	}
	groups := map[uint64]*groupInfo{}
	gpt.ForEachMapped(func(va arch.VirtAddr, gpa arch.PhysAddr, _ pagetable.Flags) bool {
		gEntry, ok := gpt.LeafEntryAddr(va)
		if !ok {
			return true
		}
		hEntry, ok := hpt.LeafEntryAddr(arch.VirtAddr(gpa))
		if !ok {
			return true
		}
		gi := groups[gEntry.CacheBlock()]
		if gi == nil {
			gi = &groupInfo{hostBlocks: map[uint64]bool{}}
			groups[gEntry.CacheBlock()] = gi
		}
		gi.hostBlocks[hEntry.CacheBlock()] = true
		gi.pages++
		return true
	})
	blocks := make([]uint64, 0, len(groups))
	for b := range groups {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	var rep FragReport
	var sum float64
	for _, b := range blocks {
		gi := groups[b]
		if gi.pages < 2 {
			continue
		}
		n := len(gi.hostBlocks)
		sum += float64(n)
		rep.Groups++
		if n >= 1 && n <= arch.PTEsPerBlock {
			rep.Histogram[n-1]++
		}
	}
	if rep.Groups > 0 {
		rep.Mean = sum / float64(rep.Groups)
		rep.FullyScattered = float64(rep.Histogram[arch.PTEsPerBlock-1]) / float64(rep.Groups)
	}
	return rep
}

// fuzzRegions are the guest's 2MB regions: neighbours under one level-2
// node, and regions under other level-3 and level-4 nodes.
var fuzzRegions = [4]arch.VirtAddr{0, 0x200000, 0x40000000, 0x7f0000000000}

// fuzzTables builds a guest and a host page table from ops, four bytes
// per operation: an opcode, then a guest page (region and one of its 512
// pages) and a guest-physical frame among 1024 (4MB, two host leaf nodes),
// drawn from the other three bytes.
func fuzzTables(t *testing.T, ops []byte) (gpt, hpt *pagetable.Table) {
	t.Helper()
	var err error
	if gpt, err = pagetable.New(physmem.New(1 << 20)); err != nil {
		t.Fatal(err)
	}
	if hpt, err = pagetable.New(physmem.New(1 << 20)); err != nil {
		t.Fatal(err)
	}
	hostFrame := func(gpa arch.PhysAddr) arch.PhysAddr { return gpa + 0x40000000 }
	for i := 0; i+3 < len(ops); i += 4 {
		region := fuzzRegions[ops[i+1]&3]
		va := region + arch.VirtAddr(int(ops[i+2])|int(ops[i+1]>>2&1)<<8)<<arch.PageShift
		gpa := arch.PhysAddr(int(ops[i+3])|int(ops[i+1]>>3&3)<<8) << arch.PageShift
		// Errors are part of the input space: a 4KB map inside a large
		// region, a large map over 4KB pages or a demote of nothing all
		// leave the tables as they were.
		switch ops[i] % 8 {
		case 0:
			_ = gpt.Map(va, gpa, pagetable.FlagWritable)
		case 1:
			// A run of up to 8 guest pages on contiguous frames, the layout
			// PTEMagnet produces.
			for p := 0; p <= int(ops[i]>>3&7); p++ {
				off := p << arch.PageShift
				_ = gpt.Map(va+arch.VirtAddr(off), gpa+arch.PhysAddr(off), pagetable.FlagWritable)
			}
		case 2:
			gpt.Unmap(va)
		case 3:
			_ = gpt.MapLarge(region, gpa&^pagetable.LargePageMask, pagetable.FlagWritable)
		case 4:
			_ = gpt.Demote(va)
		case 5:
			_ = hpt.Map(arch.VirtAddr(gpa), hostFrame(gpa), pagetable.FlagWritable)
		case 6:
			// The host leaf node stays behind with this entry absent.
			hpt.Unmap(arch.VirtAddr(gpa))
		default:
			// Back a run of up to 8 guest frames.
			for p := 0; p <= int(ops[i]>>3&7); p++ {
				g := gpa + arch.PhysAddr(p<<arch.PageShift)
				_ = hpt.Map(arch.VirtAddr(g), hostFrame(g), pagetable.FlagWritable)
			}
		}
	}
	return gpt, hpt
}

// FuzzFragmentationMatchesReference builds a guest and a host table from
// the input — 4KB and 2MB guest mappings, demotions, singleton and partly
// backed gPTE blocks, host-unbacked pages and host leaf entries left absent
// — and requires HostPTFragmentation to equal the reference exactly, Mean
// included bit for bit.
func FuzzFragmentationMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		gpt, hpt := fuzzTables(t, ops)
		if got, want := HostPTFragmentation(gpt, hpt), refHostPTFragmentation(gpt, hpt); got != want {
			t.Fatalf("HostPTFragmentation = %+v, reference %+v", got, want)
		}
	})
}
