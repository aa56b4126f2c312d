// Package pagetable implements x86-64-style four-level radix page tables
// whose nodes are real frames of a simulated physical memory.
//
// Because nodes occupy genuine frames, every page-table entry has a concrete
// physical address, and a page walk is a concrete sequence of physical
// reads — one entry per level. That is what lets the rest of the simulator
// reproduce the paper's central observation: guest PTEs of adjacent virtual
// pages share cache blocks, while host PTEs of those same pages scatter when
// guest-physical memory is fragmented (paper §2.6, §3.2).
//
// Entries are encoded in 8 bytes like real PTEs: a frame address plus flag
// bits in the low 12 bits (present, writable, copy-on-write).
package pagetable

import (
	"errors"
	"fmt"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

// ErrNoMemory reports physical-memory exhaustion while allocating a
// page-table node. Map/MapLarge/Demote failures wrap it, so callers
// classify node-allocation OOM with errors.Is instead of string
// matching.
var ErrNoMemory = errors.New("pagetable: out of physical memory for node")

// Flags carries the per-mapping permission bits the simulation needs.
type Flags uint8

const (
	// FlagWritable marks a page writable; fork clears it on COW pages.
	FlagWritable Flags = 1 << iota
	// FlagCOW marks a page as copy-on-write: the first write must copy.
	FlagCOW
)

// pte encodes an entry: bits 12+ hold the target frame address, bit 0 is
// present, bits 1-2 hold Flags, bit 3 is the page-size bit (a level-2 entry
// that maps a 2MB page directly, like the x86 PS bit), and bit 4 is the
// dirty bit (set by MarkDirty on write accesses, like the x86/EPT D bit).
type pte uint64

const (
	ptePresent  pte = 1 << 0
	pteFlagBase     = 1
	pteLarge    pte = 1 << 3
	pteDirty    pte = 1 << 4
)

func makePTE(pa arch.PhysAddr, flags Flags) pte {
	return pte(pa.PageBase()) | ptePresent | pte(flags)<<pteFlagBase
}

func makeLargePTE(pa arch.PhysAddr, flags Flags) pte {
	return makePTE(pa, flags) | pteLarge
}

func (e pte) present() bool       { return e&ptePresent != 0 }
func (e pte) large() bool         { return e&pteLarge != 0 }
func (e pte) addr() arch.PhysAddr { return arch.PhysAddr(e).PageBase() }
func (e pte) flags() Flags        { return Flags(e>>pteFlagBase) & (FlagWritable | FlagCOW) }

// target is the address e translates va to: the 4KB frame plus the page
// offset, or for a large entry the 2MB base plus the 21-bit offset.
func (e pte) target(va arch.VirtAddr) arch.PhysAddr {
	if e.large() {
		return e.addr() + arch.PhysAddr(uint64(va)&LargePageMask)
	}
	return e.addr() + arch.PhysAddr(va.PageOffset())
}

// LargePageShift is log2 of the large (huge) page size mapped by a level-2
// entry: 2MB on x86-64.
const LargePageShift = arch.PageShift + arch.PTIndexBits

// LargePageBytes is the large page size (2MB).
const LargePageBytes = 1 << LargePageShift

// LargePageMask masks the offset within a large page.
const LargePageMask = LargePageBytes - 1

// node is the in-simulator representation of one page-table page.
type node struct {
	entries [arch.PTEntriesPerNode]pte
	live    int           // number of present entries
	pa      arch.PhysAddr // the frame the node occupies
}

// Access records one physical read a hardware page walker performs: the
// entry consulted at one level.
type Access struct {
	// Level is the radix level, 4 (root) down to 1 (leaf).
	Level int
	// EntryAddr is the physical address of the 8-byte entry read.
	EntryAddr arch.PhysAddr
}

// Table is one process's (or one VM's) page table.
type Table struct {
	mem    *physmem.Memory
	levels int
	root   arch.PhysAddr
	// slot maps a frame number to 1 + the index in nodes of the node that
	// frame holds, or to 0 when it holds none of this table's nodes. It
	// holds no pointers, so the garbage collector never scans it; it costs
	// 4 bytes per frame of mem.
	slot []uint32
	// nodes is the slab of the table's nodes, in no particular order.
	nodes []*node
	// mapped counts present leaf entries (a large mapping counts as 512
	// pages — its full 4KB-page equivalent).
	mapped uint64
	// largeMapped counts present large (2MB) mappings.
	largeMapped uint64
	// changes counts the entry writes a walk can observe: each Map,
	// MapLarge and Demote, and each Unmap and SetFlags that found its
	// entry. The dirty bit is not counted; no walk reads it.
	changes uint64
}

// Stop is where one walk for an address ended: the node and level of the
// last entry it read, stamped with the table's change count at the time.
// While the count has not moved, the stop is current: every entry above
// it was present when the walk read it and is unchanged since, so a
// translation or map of an address under the stop's node may start its
// descent there instead of at the root and read, or allocate, exactly
// what a root descent would. The zero Stop is never current.
type Stop struct {
	table   *Table
	va      arch.VirtAddr
	node    arch.PhysAddr
	level   int
	changes uint64
}

// New allocates a four-level page table with an empty root node in mem.
func New(mem *physmem.Memory) (*Table, error) {
	return NewWithLevels(mem, arch.PTLevels)
}

// NewWithLevels allocates a page table with the given radix depth: 4
// (x86-64 four-level paging, 48-bit VAs) or 5 (LA57 five-level paging,
// 57-bit VAs — the migration the paper's §2.5 anticipates, which lengthens
// every dimension of a nested walk).
func NewWithLevels(mem *physmem.Memory, levels int) (*Table, error) {
	if levels != 4 && levels != 5 {
		return nil, fmt.Errorf("pagetable: unsupported depth %d (want 4 or 5)", levels)
	}
	t := &Table{mem: mem, levels: levels, slot: make([]uint32, mem.NumFrames())}
	root, err := t.allocNode()
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// Levels returns the radix depth (4 or 5).
func (t *Table) Levels() int { return t.levels }

// Root returns the physical address of the root (PML4) node.
func (t *Table) Root() arch.PhysAddr { return t.root }

// NodeCount returns the number of allocated page-table nodes (all levels).
func (t *Table) NodeCount() int { return len(t.nodes) }

// MappedPages returns the number of present leaf entries.
func (t *Table) MappedPages() uint64 { return t.mapped }

// Changes returns the table's change count, which moves with every entry
// write a walk can observe (Stop).
func (t *Table) Changes() uint64 { return t.changes }

// start returns the node and level a descent for va begins at: s's, when
// s is a current stop of t whose node lies on va's path, else the root's.
// s is a pointer so that inlining start copies no Stop.
func (t *Table) start(s *Stop, va arch.VirtAddr) (arch.PhysAddr, int) {
	if s.table == t && s.changes == t.changes && (uint64(s.va)^uint64(va))>>(arch.PageShift+s.level*arch.PTIndexBits) == 0 {
		return s.node, s.level
	}
	return t.root, t.levels
}

func (t *Table) allocNode() (arch.PhysAddr, error) {
	pa, ok := t.mem.AllocFrame(physmem.KindPageTable)
	if !ok {
		return arch.NoPhysAddr, ErrNoMemory
	}
	t.nodes = append(t.nodes, &node{pa: pa})
	t.slot[pa.FrameNumber()] = uint32(len(t.nodes))
	return pa, nil
}

// freeNode returns the node at pa to physical memory. The slab's last
// node moves into the freed index, so the slab stays dense.
func (t *Table) freeNode(pa arch.PhysAddr) {
	f := pa.FrameNumber()
	i := t.slot[f] - 1
	last := len(t.nodes) - 1
	moved := t.nodes[last]
	t.nodes[i] = moved
	t.slot[moved.pa.FrameNumber()] = i + 1
	t.nodes[last] = nil
	t.nodes = t.nodes[:last]
	t.slot[f] = 0
	t.mem.FreeBlock(pa)
}

// node returns the node held by the frame at pa, which must be one of
// the table's nodes.
func (t *Table) node(pa arch.PhysAddr) *node {
	return t.nodes[t.slot[pa.FrameNumber()]-1]
}

// Map installs va → pa with flags, creating intermediate nodes on demand.
// Mapping an already-mapped page replaces the entry in place (the dirty bit
// of the old entry does not survive the replacement, as on a real remap).
// Mapping a 4KB page inside a region covered by a large (2MB) mapping is an
// error; demote the large mapping first.
func (t *Table) Map(va arch.VirtAddr, pa arch.PhysAddr, flags Flags) error {
	return t.MapAt(Stop{}, va, pa, flags)
}

// MapAt is Map for an address a walk has just read: its allocating
// descent starts at s while s is current (Stop), and at the root
// otherwise. Either way it allocates the same nodes in the same order.
func (t *Table) MapAt(s Stop, va arch.VirtAddr, pa arch.PhysAddr, flags Flags) error {
	n, err := t.reserve(s, va, 1)
	if err != nil {
		return err
	}
	idx := va.PTIndex(1)
	if !n.entries[idx].present() {
		n.live++
		t.mapped++
	}
	n.entries[idx] = makePTE(pa, flags)
	return nil
}

// MapLarge installs a 2MB mapping at level 2: va and pa must be 2MB-aligned
// and the region must not already contain 4KB mappings.
func (t *Table) MapLarge(va arch.VirtAddr, pa arch.PhysAddr, flags Flags) error {
	if uint64(va)&LargePageMask != 0 || uint64(pa)&LargePageMask != 0 {
		return fmt.Errorf("pagetable: MapLarge of unaligned %#x → %#x", uint64(va), uint64(pa))
	}
	n, err := t.reserve(Stop{}, va, 2)
	if err != nil {
		return err
	}
	idx := va.PTIndex(2)
	if e := n.entries[idx]; e.present() {
		if e.large() {
			return fmt.Errorf("pagetable: %#x already has a large mapping", uint64(va))
		}
		if t.node(e.addr()).live > 0 {
			return fmt.Errorf("pagetable: %#x has 4KB mappings; cannot overlay a large page", uint64(va))
		}
		// An empty leaf node left behind by 4KB mappings that were all
		// unmapped since: reclaim it and install the large entry in its
		// place.
		t.freeNode(e.addr())
		n.entries[idx] = 0
		n.live--
	}
	n.entries[idx] = makeLargePTE(pa, flags)
	n.live++
	t.mapped += arch.PTEntriesPerNode
	t.largeMapped++
	return nil
}

// reserve descends to va's node at level stop (1 or 2), allocating each
// missing node on the way down. It starts at s when s is current and no
// deeper than stop, else at the root. It moves the change count before it
// allocates anything, so a map that fails after linking a node still
// outdates every earlier stop.
func (t *Table) reserve(s Stop, va arch.VirtAddr, stop int) (*node, error) {
	pa, level := t.start(&s, va)
	if level < stop {
		pa, level = t.root, t.levels
	}
	t.changes++
	n := t.node(pa)
	for ; level > stop; level-- {
		idx := va.PTIndex(level)
		e := n.entries[idx]
		if e.large() {
			return nil, fmt.Errorf("pagetable: %#x covered by a large mapping; demote first", uint64(va))
		}
		if !e.present() {
			child, err := t.allocNode()
			if err != nil {
				return nil, err
			}
			e = makePTE(child, 0)
			n.entries[idx] = e
			n.live++
		}
		n = t.node(e.addr())
	}
	return n, nil
}

// descend follows va from the node at pa, which sits at the given level,
// down to the entry that ends a hardware walk: the first non-present entry,
// a large (level-2) entry, or the level-1 entry. It returns that entry's
// node, the node's address and its level. When rec is non-nil, every entry
// read is appended to it. A start address that holds none of the table's
// nodes panics.
func (t *Table) descend(va arch.VirtAddr, level int, pa arch.PhysAddr, rec *[]Access) (*node, arch.PhysAddr, int) {
	if f := pa.FrameNumber(); pa != pa.PageBase() || f >= uint64(len(t.slot)) || t.slot[f] == 0 {
		panic(fmt.Sprintf("pagetable: walk from unknown node %#x", uint64(pa)))
	}
	n := t.node(pa)
	for {
		idx := va.PTIndex(level)
		if rec != nil {
			*rec = append(*rec, Access{Level: level, EntryAddr: pa + arch.PhysAddr(idx*arch.PTEBytes)})
		}
		e := n.entries[idx]
		if level == 1 || !e.present() || e.large() {
			return n, pa, level
		}
		pa = e.addr()
		n = t.node(pa)
		level--
	}
}

// leaf returns the level-1 node holding va's entry and the entry's index,
// or a nil node when the descent stops above level 1.
func (t *Table) leaf(va arch.VirtAddr) (*node, int) {
	n, _, level := t.descend(va, t.levels, t.root, nil)
	if level != 1 {
		return nil, 0
	}
	return n, va.PTIndex(1)
}

// largeEntry returns the level-2 node and index holding va's large
// mapping, or a nil node when va has none.
func (t *Table) largeEntry(va arch.VirtAddr) (*node, int) {
	n, _, level := t.descend(va, t.levels, t.root, nil)
	idx := va.PTIndex(level)
	if e := n.entries[idx]; !e.present() || !e.large() {
		return nil, 0
	}
	return n, idx
}

// Lookup translates va with no access trace. Large (2MB) mappings
// translate like hardware: base plus the 21-bit offset. leafNode is the
// level-1 node the descent reached — what a page-walk cache stores for
// va's 2MB region — even when va's own entry there is not present; it is
// NoPhysAddr when the descent stopped above level 1, at a missing node or
// a large mapping.
func (t *Table) Lookup(va arch.VirtAddr) (pa arch.PhysAddr, flags Flags, ok bool, leafNode arch.PhysAddr) {
	n, nodePA, level := t.descend(va, t.levels, t.root, nil)
	leafNode = arch.NoPhysAddr
	if level == 1 {
		leafNode = nodePA
	}
	e := n.entries[va.PTIndex(level)]
	if !e.present() {
		return arch.NoPhysAddr, 0, false, leafNode
	}
	return e.target(va), e.flags(), true, leafNode
}

// Translate is Lookup without the leaf node.
func (t *Table) Translate(va arch.VirtAddr) (arch.PhysAddr, Flags, bool) {
	pa, flags, ok, _ := t.Lookup(va)
	return pa, flags, ok
}

// TranslateAt is Translate for an address a walk has just read: while s
// is current (Stop) the descent starts at s, so for the walk's own page it
// reads only the entry the walk ended on; otherwise it descends from the
// root.
func (t *Table) TranslateAt(s Stop, va arch.VirtAddr) (arch.PhysAddr, Flags, bool) {
	pa, level := t.start(&s, va)
	n, _, level := t.descend(va, level, pa, nil)
	if e := n.entries[va.PTIndex(level)]; e.present() {
		return e.target(va), e.flags(), true
	}
	return arch.NoPhysAddr, 0, false
}

// LeafEntryAddr returns the physical address of the leaf (level-1) PTE that
// maps va, and whether the leaf node exists. The fragmentation metric is
// computed over these addresses: adjacent virtual pages whose leaf entries
// share a cache block enjoy the locality of Figure 3.
func (t *Table) LeafEntryAddr(va arch.VirtAddr) (arch.PhysAddr, bool) {
	if _, _, _, node := t.Lookup(va); node != arch.NoPhysAddr {
		return node + arch.PhysAddr(va.PTIndex(1)*arch.PTEBytes), true
	}
	return arch.NoPhysAddr, false
}

// WalkAppend performs a hardware-style walk for va, appending to dst the
// physical address of the entry read at each level from startLevel down,
// and stopping at the first non-present entry. found reports whether a
// translation was reached; pa is the translated physical address and
// flags the translating entry's flags when found. Hot callers reuse dst
// across walks instead of allocating one slice per TLB miss.
//
// startLevel lets a page-walk cache skip upper levels: a walk beginning at
// level 1 reads only the leaf entry, and nodePA must then be the node the
// PWC supplied. An uncached walk starts at Levels() from Root().
func (t *Table) WalkAppend(dst []Access, va arch.VirtAddr, startLevel int, nodePA arch.PhysAddr) (accesses []Access, pa arch.PhysAddr, flags Flags, found bool) {
	if startLevel < 1 || startLevel > t.levels {
		panic(fmt.Sprintf("pagetable: bad start level %d", startLevel))
	}
	n, _, level := t.descend(va, startLevel, nodePA, &dst)
	if e := n.entries[va.PTIndex(level)]; e.present() {
		return dst, e.target(va), e.flags(), true
	}
	return dst, arch.NoPhysAddr, 0, false
}

// StopAt returns where a walk of va ended, for a fault handler to
// translate and map from (TranslateAt, MapAt, AnyMappedAt): walk is the
// entries WalkAppend returned, and changes the table's change count when
// the walk ran. A table changed since, or a walk whose last entry is not
// va's, gives the zero Stop, which is never current.
func (t *Table) StopAt(va arch.VirtAddr, walk []Access, changes uint64) Stop {
	if len(walk) == 0 || changes != t.changes {
		return Stop{}
	}
	last := walk[len(walk)-1]
	if uint64(last.EntryAddr)&arch.PageMask != uint64(va.PTIndex(last.Level)*arch.PTEBytes) {
		return Stop{}
	}
	return Stop{table: t, va: va, node: last.EntryAddr.PageBase(), level: last.Level, changes: changes}
}

// AnyMappedAt reports whether any page of the pages-long run of 4KB pages
// starting at the page-aligned va is mapped, by a 4KB entry or a large
// mapping. The run must lie in one 2MB region: THP promotion asks about a
// whole region, PTEMagnet about one reservation group. The descent starts
// at s while s is current (Stop), and at the root otherwise.
func (t *Table) AnyMappedAt(s Stop, va arch.VirtAddr, pages int) bool {
	pa, level := t.start(&s, va)
	n, _, level := t.descend(va, level, pa, nil)
	idx := va.PTIndex(level)
	if level != 1 {
		// A large mapping, or no leaf node at all.
		return n.entries[idx].present()
	}
	for _, e := range n.entries[idx : idx+pages] {
		if e.present() {
			return true
		}
	}
	return false
}

// Unmap removes the leaf entry for va, returning the previously mapped
// address and flags. Intermediate nodes are retained (as Linux does for
// process lifetimes).
func (t *Table) Unmap(va arch.VirtAddr) (arch.PhysAddr, Flags, bool) {
	n, idx := t.leaf(va)
	if n == nil || !n.entries[idx].present() {
		return arch.NoPhysAddr, 0, false
	}
	e := n.entries[idx]
	n.entries[idx] = 0
	n.live--
	t.mapped--
	t.changes++
	return e.addr(), e.flags(), true
}

// SetFlags rewrites the flags of an existing mapping. It reports whether the
// page was mapped.
func (t *Table) SetFlags(va arch.VirtAddr, flags Flags) bool {
	n, idx := t.leaf(va)
	if n == nil || !n.entries[idx].present() {
		return false
	}
	n.entries[idx] = makePTE(n.entries[idx].addr(), flags)
	t.changes++
	return true
}

// MarkDirty sets the dirty bit on the leaf entry mapping va, as the page
// walker sets the x86/EPT D bit on a write access. It reports whether the
// bit transitioned from clear to set — the event a PML-style dirty log
// records; repeated writes to an already-dirty page report false and cost
// nothing. Unmapped addresses and 2MB mappings (which this simulator's host
// page tables never use) report false.
func (t *Table) MarkDirty(va arch.VirtAddr) bool {
	n, idx := t.leaf(va)
	if n == nil || !n.entries[idx].present() || n.entries[idx]&pteDirty != 0 {
		return false
	}
	n.entries[idx] |= pteDirty
	return true
}

// ClearDirty clears the dirty bit on the leaf entry mapping va, reporting
// whether the bit had been set. Draining a dirty log clears the bits it
// reports so the next write logs again.
func (t *Table) ClearDirty(va arch.VirtAddr) bool {
	n, idx := t.leaf(va)
	if n == nil || n.entries[idx]&pteDirty == 0 {
		return false
	}
	n.entries[idx] &^= pteDirty
	return true
}

// IsLargeMapped reports whether va is covered by a 2MB mapping. A table
// without large mappings (every table outside the THP policy) answers
// without a descent.
func (t *Table) IsLargeMapped(va arch.VirtAddr) bool {
	if t.largeMapped == 0 {
		return false
	}
	n, _ := t.largeEntry(va)
	return n != nil
}

// LargeMappings returns the number of live 2MB mappings.
func (t *Table) LargeMappings() uint64 { return t.largeMapped }

// Demote splits the 2MB mapping covering va into 512 4KB mappings over the
// same physical range — the THP-split operation Linux performs on partial
// frees, COW, and swapping. It allocates one leaf node.
func (t *Table) Demote(va arch.VirtAddr) error {
	n, idx := t.largeEntry(va)
	if n == nil {
		return fmt.Errorf("pagetable: no large mapping at %#x", uint64(va))
	}
	e := n.entries[idx]
	t.changes++
	leafPA, err := t.allocNode()
	if err != nil {
		return err
	}
	leaf := t.node(leafPA)
	for i := 0; i < arch.PTEntriesPerNode; i++ {
		leaf.entries[i] = makePTE(e.addr()+arch.PhysAddr(i<<arch.PageShift), e.flags())
	}
	leaf.live = arch.PTEntriesPerNode
	n.entries[idx] = makePTE(leafPA, 0)
	t.largeMapped--
	return nil
}

// visit calls fn, in ascending virtual-address order, with the virtual
// base, the physical address and the value of every present entry that
// ends a walk — each level-1 entry and each large level-2 entry — below
// the node at nodePA. It returns false as soon as fn does.
func (t *Table) visit(nodePA arch.PhysAddr, level int, prefix uint64, fn func(va arch.VirtAddr, entry arch.PhysAddr, e pte) bool) bool {
	n := t.node(nodePA)
	shift := arch.PageShift + (level-1)*arch.PTIndexBits
	for idx, e := range n.entries {
		if !e.present() {
			continue
		}
		va := prefix | uint64(idx)<<shift
		if level == 1 || e.large() {
			if !fn(arch.VirtAddr(va), nodePA+arch.PhysAddr(idx*arch.PTEBytes), e) {
				return false
			}
		} else if !t.visit(e.addr(), level-1, va, fn) {
			return false
		}
	}
	return true
}

// ForEachMapped invokes fn for every present leaf mapping in ascending
// virtual-address order. fn receives the page-aligned virtual address, the
// mapped frame address, and the flags. Iteration stops early if fn returns
// false.
func (t *Table) ForEachMapped(fn func(va arch.VirtAddr, pa arch.PhysAddr, flags Flags) bool) {
	t.visit(t.root, t.levels, 0, func(va arch.VirtAddr, _ arch.PhysAddr, e pte) bool {
		if !e.large() {
			return fn(va, e.addr(), e.flags())
		}
		// A 2MB mapping is visited as its 512 constituent pages, so
		// callers (RSS accounting, fragmentation metric, teardown) need
		// no special case.
		for i := 0; i < arch.PTEntriesPerNode; i++ {
			off := uint64(i) << arch.PageShift
			if !fn(va+arch.VirtAddr(off), e.addr()+arch.PhysAddr(off), e.flags()) {
				return false
			}
		}
		return true
	})
}

// ForEachLeafEntry invokes fn for every present 4KB leaf entry in
// ascending virtual-address order: the page-aligned virtual address, the
// physical address of its level-1 entry, and the mapped frame address.
// Large mappings have no leaf entry and are skipped. Iteration stops early
// if fn returns false.
func (t *Table) ForEachLeafEntry(fn func(va arch.VirtAddr, entry, pa arch.PhysAddr) bool) {
	t.visit(t.root, t.levels, 0, func(va arch.VirtAddr, entry arch.PhysAddr, e pte) bool {
		return e.large() || fn(va, entry, e.addr())
	})
}

// ForEachLarge visits the 2MB-aligned virtual base of every live large
// mapping. Stops early when fn returns false.
func (t *Table) ForEachLarge(fn func(va arch.VirtAddr) bool) {
	t.visit(t.root, t.levels, 0, func(va arch.VirtAddr, _ arch.PhysAddr, e pte) bool {
		return !e.large() || fn(va)
	})
}

// ForEachDirty visits the page-aligned virtual address of every leaf entry
// whose dirty bit is set, in ascending virtual-address order — the full-table
// rescan a hypervisor falls back to when its dirty log overflows. Iteration
// stops early if fn returns false. Large mappings never carry the dirty bit
// (MarkDirty refuses them).
func (t *Table) ForEachDirty(fn func(va arch.VirtAddr) bool) {
	t.visit(t.root, t.levels, 0, func(va arch.VirtAddr, _ arch.PhysAddr, e pte) bool {
		return e&pteDirty == 0 || fn(va)
	})
}

// Destroy releases every node frame back to physical memory. The table must
// not be used afterwards. Mapped data frames are not freed — the owning
// kernel frees those according to its own bookkeeping.
func (t *Table) Destroy() {
	// Free in ascending frame order: the buddy allocator's free lists
	// remember insertion order, so the free order decides every later
	// allocation.
	for f, i := range t.slot {
		if i != 0 {
			t.mem.FreeBlock(arch.PhysAddr(f) << arch.PageShift)
		}
	}
	t.slot, t.nodes = nil, nil
	t.mapped = 0
}
