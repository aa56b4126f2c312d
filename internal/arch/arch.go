// Package arch defines the address-space geometry shared by every layer of
// the simulator: page and cache-block sizes, virtual/physical address types,
// and the x86-64 four-level radix page-table layout (512 eight-byte entries
// per node, 9 bits of index per level).
//
// All other packages derive their constants from this one so that the whole
// simulation agrees on a single geometry. The values mirror Linux/x86-64
// with 4KB base pages, which is the configuration the PTEMagnet paper
// evaluates (large pages disabled, as is common in public clouds).
package arch

// Fundamental sizes. These are the x86-64 values; they are constants rather
// than configuration because PTEMagnet's central insight — eight 8-byte PTEs
// share one 64-byte cache block, so an eight-page (32KB) reservation aligns
// host PTEs to a single block — is tied to this exact geometry.
const (
	// PageShift is log2 of the base page size.
	PageShift = 12
	// PageSize is the base (small) page size in bytes: 4KB.
	PageSize = 1 << PageShift
	// PageMask masks the offset-within-page bits of an address.
	PageMask = PageSize - 1

	// CacheBlockShift is log2 of the CPU cache block size.
	CacheBlockShift = 6
	// CacheBlockSize is the CPU cache block size in bytes: 64B.
	CacheBlockSize = 1 << CacheBlockShift

	// PTEBytes is the size of one page-table entry.
	PTEBytes = 8
	// PTEsPerBlock is how many PTEs fit into one cache block. This is the
	// reservation group size used by PTEMagnet: 64B / 8B = 8 pages.
	PTEsPerBlock = CacheBlockSize / PTEBytes

	// GroupPages is the PTEMagnet reservation group size in pages. A group
	// of eight adjacent pages is exactly the span whose leaf PTEs occupy a
	// single cache block.
	GroupPages = PTEsPerBlock
	// GroupShift is log2 of the group span in bytes (32KB → 15).
	GroupShift = PageShift + 3
	// GroupBytes is the span of one reservation group in bytes: 32KB.
	GroupBytes = 1 << GroupShift
	// GroupMask masks the offset-within-group bits of an address.
	GroupMask = GroupBytes - 1

	// PTLevels is the number of radix-tree levels in a page table.
	// Level 4 is the root (PML4), level 1 the leaf (PT).
	PTLevels = 4
	// PTIndexBits is the number of index bits consumed per level.
	PTIndexBits = 9
	// PTEntriesPerNode is the fan-out of one page-table node.
	PTEntriesPerNode = 1 << PTIndexBits
	// PTNodeBytes is the size of one page-table node: exactly one page.
	PTNodeBytes = PTEntriesPerNode * PTEBytes

	// VABits is the number of meaningful virtual-address bits (x86-64
	// four-level paging translates 48 bits).
	VABits = PageShift + PTLevels*PTIndexBits
	// VPNBits is the width of a virtual page number under the deepest
	// paging mode simulated, LA57 five-level paging: 5×9 = 45 bits.
	VPNBits = 5 * PTIndexBits
	// ASIDBits is the width of an address-space identifier (the guest
	// PID). A TLB key packs the ASID above the VPN in one 64-bit word and
	// keeps the top bit clear, so no key equals an empty way's all-ones
	// sentinel.
	ASIDBits = 64 - VPNBits - 1

	// WordBytes is the machine word size the workloads stride by when
	// touching memory: 8 bytes, matching the PTE size.
	WordBytes = 8
	// WordsPerPage is how many 8-byte words fit in one base page (512).
	// Workload access generators use it to pick word-aligned offsets
	// within a page.
	WordsPerPage = PageSize / WordBytes
)

// VirtAddr is a virtual address. Guest code addresses guest-virtual space;
// the host kernel sees guest-physical addresses as host-virtual addresses in
// the VM process's address space.
type VirtAddr uint64

// PhysAddr is a physical address: guest-physical inside a VM, host-physical
// on the machine. Which one is meant is determined by the owning layer.
type PhysAddr uint64

// NoPhysAddr marks an unmapped or invalid physical address. Physical frame 0
// is never handed out by the allocators, so 0 is safe as a sentinel.
const NoPhysAddr PhysAddr = 0

// PageNumber returns the virtual page number of va.
func (va VirtAddr) PageNumber() uint64 { return uint64(va) >> PageShift }

// PageBase returns va rounded down to its page boundary.
func (va VirtAddr) PageBase() VirtAddr { return va &^ VirtAddr(PageMask) }

// PageOffset returns the offset of va within its page.
func (va VirtAddr) PageOffset() uint64 { return uint64(va) & PageMask }

// GroupBase returns va rounded down to its 32KB reservation-group boundary.
// This is the rounding PTEMagnet's page-fault handler applies before the
// PaRT lookup (paper §4.2).
func (va VirtAddr) GroupBase() VirtAddr { return va &^ VirtAddr(GroupMask) }

// GroupIndex returns the index of va's page within its reservation group,
// in [0, GroupPages).
func (va VirtAddr) GroupIndex() int {
	return int((uint64(va) >> PageShift) & (GroupPages - 1))
}

// PTIndex returns the radix-tree index consumed at the given page-table
// level (4 = root … 1 = leaf) when translating va.
func (va VirtAddr) PTIndex(level int) int {
	shift := PageShift + (level-1)*PTIndexBits
	return int((uint64(va) >> shift) & (PTEntriesPerNode - 1))
}

// FrameNumber returns the physical frame number of pa.
func (pa PhysAddr) FrameNumber() uint64 { return uint64(pa) >> PageShift }

// PageBase returns pa rounded down to its page boundary.
func (pa PhysAddr) PageBase() PhysAddr { return pa &^ PhysAddr(PageMask) }

// PageOffset returns the offset of pa within its page.
func (pa PhysAddr) PageOffset() uint64 { return uint64(pa) & PageMask }

// CacheBlock returns the cache-block number of pa. Two physical addresses
// with equal CacheBlock values contend for (and share) one cache block —
// the quantity PTEMagnet's fragmentation metric is defined over.
func (pa PhysAddr) CacheBlock() uint64 { return uint64(pa) >> CacheBlockShift }

// FrameToPhys converts a physical frame number to the address of its first
// byte.
func FrameToPhys(frame uint64) PhysAddr { return PhysAddr(frame << PageShift) }

// PagesToBytes converts a page count to bytes.
func PagesToBytes(pages uint64) uint64 { return pages << PageShift }

// BytesToPages converts a byte count to pages, rounding up.
func BytesToPages(bytes uint64) uint64 {
	return (bytes + PageSize - 1) >> PageShift
}

// AlignUp rounds v up to the next multiple of align, which must be a power
// of two.
func AlignUp(v, align uint64) uint64 { return (v + align - 1) &^ (align - 1) }

// AlignDown rounds v down to a multiple of align, which must be a power of
// two.
func AlignDown(v, align uint64) uint64 { return v &^ (align - 1) }

// IsPowerOfTwo reports whether v is a power of two. Zero is not.
func IsPowerOfTwo(v uint64) bool { return v != 0 && v&(v-1) == 0 }
