package arch

import (
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if PageSize != 4096 {
		t.Errorf("PageSize = %d, want 4096", PageSize)
	}
	if CacheBlockSize != 64 {
		t.Errorf("CacheBlockSize = %d, want 64", CacheBlockSize)
	}
	if GroupPages != 8 {
		t.Errorf("GroupPages = %d, want 8 (paper: 8 PTEs per cache block)", GroupPages)
	}
	if GroupBytes != 32*1024 {
		t.Errorf("GroupBytes = %d, want 32KB", GroupBytes)
	}
	if PTNodeBytes != PageSize {
		t.Errorf("PTNodeBytes = %d, want one page", PTNodeBytes)
	}
	if VABits != 48 {
		t.Errorf("VABits = %d, want 48", VABits)
	}
	// A packed TLB key holds a five-level VPN and an ASID below its top
	// bit, which the empty-way sentinel sets.
	if VPNBits != 57-PageShift || VPNBits+ASIDBits != 63 {
		t.Errorf("VPNBits = %d, ASIDBits = %d; want 45 and 18", VPNBits, ASIDBits)
	}
}

func TestVirtAddrHelpers(t *testing.T) {
	va := VirtAddr(0x12345678)
	if got := va.PageBase(); got != 0x12345000 {
		t.Errorf("PageBase = %#x, want 0x12345000", got)
	}
	if got := va.PageOffset(); got != 0x678 {
		t.Errorf("PageOffset = %#x, want 0x678", got)
	}
	if got := va.PageNumber(); got != 0x12345 {
		t.Errorf("PageNumber = %#x, want 0x12345", got)
	}
	if got := va.GroupBase(); got != 0x12340000 {
		t.Errorf("GroupBase = %#x, want 0x12340000", got)
	}
	if got := va.GroupIndex(); got != 5 {
		t.Errorf("GroupIndex = %d, want 5", got)
	}
}

func TestPTIndexDecomposition(t *testing.T) {
	// Construct an address with known per-level indices and check that
	// PTIndex recovers them.
	idx := [PTLevels + 1]int{0, 17, 301, 42, 511} // idx[level]
	var va uint64
	for level := 1; level <= PTLevels; level++ {
		va |= uint64(idx[level]) << (PageShift + (level-1)*PTIndexBits)
	}
	va |= 0xABC // page offset must not affect indices
	for level := 1; level <= PTLevels; level++ {
		if got := VirtAddr(va).PTIndex(level); got != idx[level] {
			t.Errorf("PTIndex(%d) = %d, want %d", level, got, idx[level])
		}
	}
}

func TestPTIndexRange(t *testing.T) {
	f := func(raw uint64) bool {
		va := VirtAddr(raw)
		for level := 1; level <= PTLevels; level++ {
			i := va.PTIndex(level)
			if i < 0 || i >= PTEntriesPerNode {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupBaseProperties(t *testing.T) {
	f := func(raw uint64) bool {
		va := VirtAddr(raw)
		gb := va.GroupBase()
		// Group base is group-aligned, at or below va, within one group.
		return uint64(gb)%GroupBytes == 0 &&
			gb <= va &&
			uint64(va)-uint64(gb) < GroupBytes &&
			// All pages of the group share the group base.
			(va.PageBase().GroupBase() == gb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupIndexCoversGroup(t *testing.T) {
	base := VirtAddr(0x7f0000000000)
	seen := map[int]bool{}
	for p := 0; p < GroupPages; p++ {
		va := base + VirtAddr(p*PageSize)
		if va.GroupBase() != base {
			t.Fatalf("page %d: GroupBase = %#x, want %#x", p, va.GroupBase(), base)
		}
		seen[va.GroupIndex()] = true
	}
	if len(seen) != GroupPages {
		t.Errorf("group indices cover %d distinct values, want %d", len(seen), GroupPages)
	}
}

func TestPhysAddrHelpers(t *testing.T) {
	pa := PhysAddr(0x2345678)
	if got := pa.FrameNumber(); got != 0x2345 {
		t.Errorf("FrameNumber = %#x, want 0x2345", got)
	}
	if got := pa.PageBase(); got != 0x2345000 {
		t.Errorf("PageBase = %#x, want 0x2345000", got)
	}
	if got := pa.CacheBlock(); got != 0x2345678>>6 {
		t.Errorf("CacheBlock = %#x, want %#x", got, 0x2345678>>6)
	}
	if got := FrameToPhys(0x2345); got != 0x2345000 {
		t.Errorf("FrameToPhys = %#x, want 0x2345000", got)
	}
}

func TestAdjacentPTEsShareCacheBlock(t *testing.T) {
	// Eight consecutive 8-byte PTEs starting at a block-aligned physical
	// address must land in one cache block; the ninth must not. This is
	// the packing property from Figure 3 of the paper.
	base := PhysAddr(0x1000)
	first := base.CacheBlock()
	for i := 0; i < PTEsPerBlock; i++ {
		pa := base + PhysAddr(i*PTEBytes)
		if pa.CacheBlock() != first {
			t.Errorf("PTE %d at %#x: block %d, want %d", i, pa, pa.CacheBlock(), first)
		}
	}
	ninth := base + PhysAddr(PTEsPerBlock*PTEBytes)
	if ninth.CacheBlock() == first {
		t.Errorf("PTE 8 unexpectedly shares the block")
	}
}

func TestAlignHelpers(t *testing.T) {
	cases := []struct {
		v, align, up, down uint64
	}{
		{0, 8, 0, 0},
		{1, 8, 8, 0},
		{8, 8, 8, 8},
		{9, 8, 16, 8},
		{4095, 4096, 4096, 0},
		{4096, 4096, 4096, 4096},
		{4097, 4096, 8192, 4096},
	}
	for _, c := range cases {
		if got := AlignUp(c.v, c.align); got != c.up {
			t.Errorf("AlignUp(%d,%d) = %d, want %d", c.v, c.align, got, c.up)
		}
		if got := AlignDown(c.v, c.align); got != c.down {
			t.Errorf("AlignDown(%d,%d) = %d, want %d", c.v, c.align, got, c.down)
		}
	}
}

func TestBytesToPages(t *testing.T) {
	cases := []struct{ bytes, pages uint64 }{
		{0, 0}, {1, 1}, {4095, 1}, {4096, 1}, {4097, 2}, {8192, 2},
	}
	for _, c := range cases {
		if got := BytesToPages(c.bytes); got != c.pages {
			t.Errorf("BytesToPages(%d) = %d, want %d", c.bytes, got, c.pages)
		}
	}
	if got := PagesToBytes(3); got != 3*4096 {
		t.Errorf("PagesToBytes(3) = %d", got)
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, v := range []uint64{1, 2, 4, 8, 1 << 20, 1 << 62} {
		if !IsPowerOfTwo(v) {
			t.Errorf("IsPowerOfTwo(%d) = false", v)
		}
	}
	for _, v := range []uint64{0, 3, 6, 12, (1 << 20) + 1} {
		if IsPowerOfTwo(v) {
			t.Errorf("IsPowerOfTwo(%d) = true", v)
		}
	}
}
