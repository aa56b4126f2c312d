// Package guestos simulates the guest Linux kernel's virtual-memory
// subsystem: processes with per-process page tables, eager virtual address
// allocation (mmap), lazy physical allocation on page faults, fork with
// copy-on-write, and free/munmap paths.
//
// Two page-fault allocation policies are provided, the comparison at the
// heart of the paper:
//
//   - PolicyDefault — the stock Linux path: one page from the buddy
//     allocator per fault. Under colocation, interleaved faults from
//     different processes fragment guest-physical memory (§2.4).
//   - PolicyPTEMagnet — the paper's reservation path: the first fault to a
//     32KB group takes the whole aligned eight-page group from the buddy
//     allocator and maps one page; later faults in the group are served
//     from the reservation, guaranteeing guest-physical contiguity (§4.2).
//
// The kernel also implements the §4.3 reclamation daemon (watermark-
// triggered, destroys reservations of a randomly chosen process until
// pressure subsides) and the §4.4 cgroup-style enable threshold and fork
// semantics.
package guestos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/core"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/physmem"
)

// AllocPolicy selects the page-fault allocation path.
type AllocPolicy uint8

const (
	// PolicyDefault is the stock Linux buddy page-at-a-time allocator.
	PolicyDefault AllocPolicy = iota
	// PolicyPTEMagnet is the paper's reservation-based allocator.
	PolicyPTEMagnet
	// PolicyCAPaging is the contiguity-aware-paging baseline from the
	// paper's related work (Alverti et al., ISCA'20): a best-effort
	// allocator that tries to place each faulting page physically
	// adjacent to its virtual neighbour, with no reservation. It restores
	// contiguity when memory is quiet but — the paper's argument against
	// it — degrades under aggressive colocation, because co-runners grab
	// the adjacent frames first.
	PolicyCAPaging
	// PolicyTHP is a transparent-huge-pages baseline (§2.3): the first
	// fault to an empty, fully-VMA-covered 2MB region allocates and maps
	// a whole 2MB page. It shortens guest walks (three levels) and packs
	// host PTEs, but carries the §2.3 costs the paper enumerates:
	// internal fragmentation (512 pages committed per fault), order-9
	// allocation failures under memory fragmentation (falling back to
	// scattered 4KB pages), and splits (demotions) on partial free, COW,
	// and swap.
	PolicyTHP
)

// String names the policy.
func (p AllocPolicy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case PolicyPTEMagnet:
		return "ptemagnet"
	case PolicyCAPaging:
		return "capaging"
	case PolicyTHP:
		return "thp"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", uint8(p))
	}
}

// ParsePolicy returns the policy whose String is name: the inverse of
// AllocPolicy.String over the four policies.
func ParsePolicy(name string) (AllocPolicy, error) {
	for p := PolicyDefault; p <= PolicyTHP; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("guestos: unknown policy %q (want default, ptemagnet, capaging or thp)", name)
}

// Config parameterizes the guest kernel.
type Config struct {
	// MemBytes is the guest-physical memory size.
	MemBytes uint64
	// Policy selects the fault-time allocator.
	Policy AllocPolicy
	// Magnet configures the PaRT when Policy is PolicyPTEMagnet.
	Magnet core.Config
	// EnableThresholdBytes gates PTEMagnet per process (§4.4): processes
	// whose declared memory limit is below the threshold use the default
	// allocator. Zero enables PTEMagnet for every process.
	EnableThresholdBytes uint64
	// ReclaimWatermark is the used-memory fraction above which the
	// reclaim daemon destroys reservations (§4.3). Zero means 0.95.
	ReclaimWatermark float64
	// Seed drives the daemon's random victim selection.
	Seed int64
	// PTLevels selects the guest page-table depth: 4 (default) or 5
	// (LA57 five-level paging, the §2.5 migration).
	PTLevels int
	// VMID is the host-side id of the VM this kernel runs in. It only
	// tags frame ownership — (VM, process) attribution on a multi-tenant
	// host — and never changes allocation behaviour. Zero is fine for a
	// standalone kernel.
	VMID int
}

// FaultKind classifies how a page fault was satisfied, for cost accounting.
type FaultKind uint8

const (
	// FaultAlreadyMapped: spurious fault; the page was mapped (e.g. by a
	// sibling thread). No work done.
	FaultAlreadyMapped FaultKind = iota
	// FaultDefault: one page allocated from the buddy allocator.
	FaultDefault
	// FaultMagnetNew: a fresh reservation group was allocated from the
	// buddy allocator and the faulting page mapped from it.
	FaultMagnetNew
	// FaultMagnetHit: the page came from an existing reservation — no
	// buddy-allocator call (the fast path §6.4 measures).
	FaultMagnetHit
	// FaultParentClaim: a forked child claimed the page from its parent's
	// reservation (§4.4).
	FaultParentClaim
	// FaultCOW: a write to a copy-on-write page copied the frame.
	FaultCOW
	// FaultCAHit: the CA-paging baseline placed the page physically
	// adjacent to its virtual neighbour.
	FaultCAHit
	// FaultTHP: a whole 2MB huge page was allocated and mapped.
	FaultTHP
	// NumFaultKinds is the number of fault kinds.
	NumFaultKinds
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultAlreadyMapped:
		return "already-mapped"
	case FaultDefault:
		return "default"
	case FaultMagnetNew:
		return "magnet-new"
	case FaultMagnetHit:
		return "magnet-hit"
	case FaultParentClaim:
		return "parent-claim"
	case FaultCOW:
		return "cow"
	case FaultCAHit:
		return "ca-hit"
	case FaultTHP:
		return "thp"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Stats aggregates kernel activity.
type Stats struct {
	// Faults counts page faults by kind.
	Faults [NumFaultKinds]uint64
	// BuddyCalls counts calls into the buddy allocator from the fault
	// path (each is the slow path the reservation mechanism avoids).
	BuddyCalls uint64
	// ReclaimRuns counts daemon invocations; ReclaimedReservations the
	// reservations it destroyed.
	ReclaimRuns           uint64
	ReclaimedReservations uint64
	ReclaimedPages        uint64
	// OOMFallbacks counts PTEMagnet faults that fell back to the default
	// path because a whole group could not be allocated.
	OOMFallbacks uint64
	// THPFallbacks counts THP faults that fell back to 4KB pages (region
	// not promotable or no order-9 block free); THPSplits counts huge
	// pages demoted by partial free, COW, or swap.
	THPFallbacks uint64
	THPSplits    uint64
}

// Delta returns the counter-wise difference s - prev.
func (s Stats) Delta(prev Stats) Stats {
	var d Stats
	for i := range s.Faults {
		d.Faults[i] = s.Faults[i] - prev.Faults[i]
	}
	d.BuddyCalls = s.BuddyCalls - prev.BuddyCalls
	d.ReclaimRuns = s.ReclaimRuns - prev.ReclaimRuns
	d.ReclaimedReservations = s.ReclaimedReservations - prev.ReclaimedReservations
	d.ReclaimedPages = s.ReclaimedPages - prev.ReclaimedPages
	d.OOMFallbacks = s.OOMFallbacks - prev.OOMFallbacks
	d.THPFallbacks = s.THPFallbacks - prev.THPFallbacks
	d.THPSplits = s.THPSplits - prev.THPSplits
	return d
}

// Errors returned by the kernel.
var (
	// ErrNoVMA reports an access outside any mapped virtual region — the
	// simulated equivalent of SIGSEGV.
	ErrNoVMA = errors.New("guestos: access outside any VMA")
	// ErrOutOfMemory reports guest-physical exhaustion even after reclaim.
	ErrOutOfMemory = errors.New("guestos: out of guest-physical memory")
	// ErrBadRange reports a malformed mmap/free range.
	ErrBadRange = errors.New("guestos: bad address range")
	// ErrPIDSpace reports a spawn whose PID would not fit the
	// arch.ASIDBits-wide ASID that tags the process's TLB entries.
	ErrPIDSpace = errors.New("guestos: PID does not fit the ASID width")
)

// vma is one eagerly allocated virtual region.
type vma struct {
	start, end arch.VirtAddr // [start, end)
}

// Process is one guest process (one colocated application).
type Process struct {
	kernel *Kernel
	pid    int
	asid   uint32
	name   string
	pt     *pagetable.Table
	part   *core.PaRT // nil when the default policy applies to this process
	parent *Process
	vmas   []vma
	// nextMmap is the bump pointer for new VMAs.
	nextMmap arch.VirtAddr
	// memLimit is the cgroup-style declared limit used by the §4.4
	// enable threshold.
	memLimit uint64
	rss      uint64 // mapped user pages
	alive    bool
}

// Kernel is the guest OS kernel.
type Kernel struct {
	cfg  Config
	mem  *physmem.Memory
	rng  *rand.Rand
	next int // next pid
	// procs holds live processes in spawn order.
	procs []*Process
	// shared refcounts frames shared by fork COW; frames absent count 1.
	shared map[arch.PhysAddr]int
	stats  Stats
	// balloonTarget is the host-requested balloon size in pages;
	// balloonPages holds the guest frames currently in the balloon, in
	// inflation order (deflation pops from the tail, so inflate-then-
	// deflate restores the buddy free lists exactly).
	balloonTarget uint64
	balloonPages  []arch.PhysAddr
	// swapProc/swapVA form the balloon driver's eviction cursor: the next
	// (process index, virtual address) its last-resort swap scan resumes
	// from. Advancing monotonically approximates FIFO eviction and keeps
	// repeated scans cheap.
	swapProc int
	swapVA   arch.VirtAddr
}

// mmapBase is where process heaps begin, mirroring the x86-64 mmap region.
const mmapBase arch.VirtAddr = 0x7f00_0000_0000

// NewKernel boots a guest kernel with the given configuration.
func NewKernel(cfg Config) *Kernel {
	if cfg.ReclaimWatermark == 0 {
		cfg.ReclaimWatermark = 0.95
	}
	if cfg.Magnet.GroupPages == 0 {
		cfg.Magnet = core.DefaultConfig()
	}
	if cfg.PTLevels == 0 {
		cfg.PTLevels = 4
	}
	k := &Kernel{
		cfg:    cfg,
		mem:    physmem.New(cfg.MemBytes),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		next:   1,
		shared: make(map[arch.PhysAddr]int),
	}
	// Deflate-on-OOM backstop: any single-frame allocation that finds the
	// pool empty — page-table nodes included — may release balloon frames
	// before failing for good.
	k.mem.SetEmptyHook(k.deflateOnOOM)
	return k
}

// Memory exposes guest-physical memory for inspection.
func (k *Kernel) Memory() *physmem.Memory { return k.mem }

// own tags a frame owner as (this kernel's VM, pid).
func (k *Kernel) own(pid int) physmem.Owner { return physmem.Own(k.cfg.VMID, pid) }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Snapshot returns a copy of the activity counters.
func (k *Kernel) Snapshot() Stats { return k.stats }

// RegisterObs registers the kernel's counters on r under prefix: one fault
// counter per kind plus the buddy/reclaim/fallback totals.
func (k *Kernel) RegisterObs(r *obs.Registry, prefix string) {
	for kind := FaultKind(0); kind < NumFaultKinds; kind++ {
		kind := kind
		r.Counter(prefix+"faults."+kind.String(), func() uint64 { return k.stats.Faults[kind] })
	}
	r.Counter(prefix+"buddy_calls", func() uint64 { return k.stats.BuddyCalls })
	r.Counter(prefix+"reclaim_runs", func() uint64 { return k.stats.ReclaimRuns })
	r.Counter(prefix+"reclaimed_reservations", func() uint64 { return k.stats.ReclaimedReservations })
	r.Counter(prefix+"reclaimed_pages", func() uint64 { return k.stats.ReclaimedPages })
	r.Counter(prefix+"oom_fallbacks", func() uint64 { return k.stats.OOMFallbacks })
	r.Counter(prefix+"thp_fallbacks", func() uint64 { return k.stats.THPFallbacks })
	r.Counter(prefix+"thp_splits", func() uint64 { return k.stats.THPSplits })
}

// Processes returns the live processes in spawn order.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		if p.alive {
			out = append(out, p)
		}
	}
	return out
}

// Spawn creates a process. memLimit is the declared (cgroup) memory limit
// used by the PTEMagnet enable threshold; pass the expected footprint.
func (k *Kernel) Spawn(name string, memLimit uint64) (*Process, error) {
	pid := k.next
	if pid >= 1<<arch.ASIDBits {
		return nil, fmt.Errorf("guestos: spawn %q: %w (pid %d)", name, ErrPIDSpace, pid)
	}
	k.next++
	pt, err := pagetable.NewWithLevels(k.mem, k.own(pid), k.cfg.PTLevels)
	if err != nil {
		return nil, err
	}
	p := &Process{
		kernel:   k,
		pid:      pid,
		asid:     uint32(pid),
		name:     name,
		pt:       pt,
		nextMmap: mmapBase,
		memLimit: memLimit,
		alive:    true,
	}
	if k.magnetEnabledFor(p) {
		part, err := core.New(k.cfg.Magnet)
		if err != nil {
			return nil, fmt.Errorf("guestos: spawn %q: %w", name, err)
		}
		p.part = part
	}
	k.procs = append(k.procs, p)
	return p, nil
}

func (k *Kernel) magnetEnabledFor(p *Process) bool {
	if k.cfg.Policy != PolicyPTEMagnet {
		return false
	}
	return k.cfg.EnableThresholdBytes == 0 || p.memLimit >= k.cfg.EnableThresholdBytes
}

// PID returns the process id.
func (p *Process) PID() int { return p.pid }

// ASID returns the address-space id used for TLB tagging.
func (p *Process) ASID() uint32 { return p.asid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// PageTable exposes the process page table (the guest PT).
func (p *Process) PageTable() *pagetable.Table { return p.pt }

// Part returns the process's PaRT, or nil when PTEMagnet does not apply.
func (p *Process) Part() *core.PaRT { return p.part }

// RSS returns the number of mapped user pages.
func (p *Process) RSS() uint64 { return p.rss }

// Mmap eagerly allocates a virtual region of the given size (rounded up to
// whole pages) and returns its base. Physical memory is not allocated —
// that happens page by page on fault (§2.2).
func (p *Process) Mmap(bytes uint64) (arch.VirtAddr, error) {
	if bytes == 0 {
		return 0, ErrBadRange
	}
	span := arch.PagesToBytes(arch.BytesToPages(bytes))
	// Keep regions group-aligned with a guard gap so reservations of
	// different VMAs never interleave within one group. Under THP, large
	// requests are 2MB-aligned, as Linux's thp_get_unmapped_area does, so
	// whole regions are promotable.
	align := uint64(arch.GroupBytes)
	if p.kernel.cfg.Policy == PolicyTHP && span >= pagetable.LargePageBytes {
		align = pagetable.LargePageBytes
	}
	start := arch.VirtAddr(arch.AlignUp(uint64(p.nextMmap), align))
	end := start + arch.VirtAddr(span)
	if uint64(end) >= uint64(1)<<arch.VABits {
		return 0, ErrBadRange
	}
	p.vmas = append(p.vmas, vma{start: start, end: end})
	p.nextMmap = end + arch.VirtAddr(arch.GroupBytes) // guard gap
	return start, nil
}

// findVMA returns the VMA containing va.
func (p *Process) findVMA(va arch.VirtAddr) (vma, bool) {
	i := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].end > va })
	if i < len(p.vmas) && p.vmas[i].start <= va {
		return p.vmas[i], true
	}
	return vma{}, false
}

// Translate performs a logical guest translation without fault handling.
func (p *Process) Translate(va arch.VirtAddr) (arch.PhysAddr, bool) {
	pa, _, ok := p.pt.Translate(va)
	return pa, ok
}

// HandlePageFault resolves a fault at va. write reports whether the access
// is a store (relevant for COW). It returns the fault kind for cost
// accounting.
func (p *Process) HandlePageFault(va arch.VirtAddr, write bool) (FaultKind, error) {
	if !p.alive {
		return 0, fmt.Errorf("guestos: fault in dead process %d", p.pid)
	}
	if _, ok := p.findVMA(va); !ok {
		return 0, fmt.Errorf("%w: pid %d va %#x", ErrNoVMA, p.pid, uint64(va))
	}
	page := va.PageBase()
	if pa, flags, ok := p.pt.Translate(page); ok {
		if write && flags&pagetable.FlagCOW != 0 {
			return p.copyOnWrite(page, pa.PageBase())
		}
		return FaultAlreadyMapped, nil
	}
	return p.allocatePage(page)
}

// Touch faults va in (read access) if needed. Convenience for tests and
// workload preparation.
func (p *Process) Touch(va arch.VirtAddr) (FaultKind, error) {
	return p.HandlePageFault(va, false)
}

func (p *Process) allocatePage(page arch.VirtAddr) (FaultKind, error) {
	k := p.kernel

	// §4.4 fork path: consult the parent's reservation map first.
	if p.parent != nil && p.parent.alive && p.parent.part != nil {
		if pa, ok := p.parent.part.ClaimFromParent(page); ok {
			k.mem.SetKind(pa, physmem.KindUser, k.own(p.pid))
			if err := p.pt.Map(page, pa, pagetable.FlagWritable); err != nil {
				return 0, err
			}
			p.rss++
			k.stats.Faults[FaultParentClaim]++
			return FaultParentClaim, nil
		}
	}

	if p.part != nil {
		if kind, ok, err := p.magnetFault(page); ok || err != nil {
			return kind, err
		}
		// Fall through to the default path (partial group, OOM, …).
		k.stats.OOMFallbacks++
	}

	if k.cfg.Policy == PolicyTHP {
		if kind, ok, err := p.thpFault(page); ok || err != nil {
			return kind, err
		}
		k.stats.THPFallbacks++
	}

	if k.cfg.Policy == PolicyCAPaging {
		if pa, ok := p.caPlacement(page); ok {
			if err := p.pt.Map(page, pa, pagetable.FlagWritable); err != nil {
				return 0, err
			}
			p.rss++
			k.stats.Faults[FaultCAHit]++
			k.checkPressure()
			return FaultCAHit, nil
		}
	}

	pa, ok := k.allocUserFrame(p.pid)
	if !ok {
		return 0, ErrOutOfMemory
	}
	if err := p.pt.Map(page, pa, pagetable.FlagWritable); err != nil {
		return 0, err
	}
	p.rss++
	k.stats.Faults[FaultDefault]++
	return FaultDefault, nil
}

// magnetFault attempts the PTEMagnet path. ok=false means the caller should
// use the default path instead.
func (p *Process) magnetFault(page arch.VirtAddr) (FaultKind, bool, error) {
	k := p.kernel
	part := p.part

	// A reservation is only created for a group with no prior mappings;
	// if the group was partially populated through another path (reclaim
	// destroyed its reservation, fork, …) the default allocator serves
	// the fault. A live reservation always takes precedence — unless a
	// forked child already claimed this very page from it (§4.4), in
	// which case the frame belongs to the child and the parent takes the
	// default path.
	if _, exists := part.Lookup(page); !exists {
		if p.pt.AnyMapped(part.GroupBase(page), part.Config().GroupPages) {
			return 0, false, nil
		}
	} else if _, mapped, found := part.ReservedPageFor(page); found && mapped {
		return 0, false, nil
	}

	pa, res := part.HandleFault(page, func() (arch.PhysAddr, bool) {
		k.stats.BuddyCalls++
		base, ok := k.mem.AllocGroup(part.Config().GroupPages, physmem.KindReserved, k.own(p.pid))
		if !ok {
			// Try to relieve pressure once, then retry.
			k.runReclaim()
			base, ok = k.mem.AllocGroup(part.Config().GroupPages, physmem.KindReserved, k.own(p.pid))
		}
		return base, ok
	})
	if res == core.FaultNoMemory {
		return 0, false, nil
	}
	k.mem.SetKind(pa, physmem.KindUser, k.own(p.pid))
	if err := p.pt.Map(page, pa, pagetable.FlagWritable); err != nil {
		return 0, true, err
	}
	p.rss++
	k.checkPressure()
	if res == core.FaultReservationHit {
		k.stats.Faults[FaultMagnetHit]++
		return FaultMagnetHit, true, nil
	}
	k.stats.Faults[FaultMagnetNew]++
	return FaultMagnetNew, true, nil
}

// caPlacement implements CA paging's best-effort step: take the frame
// physically adjacent to the mapping of a virtual neighbour, if that frame
// happens to be free right now. No reservation protects it, so under
// colocation the frame has usually been taken by someone else.
func (p *Process) caPlacement(page arch.VirtAddr) (arch.PhysAddr, bool) {
	k := p.kernel
	if prev, _, ok := p.pt.Translate(page - arch.PageSize); ok {
		want := prev.PageBase() + arch.PageSize
		if k.mem.AllocFrameAt(want, physmem.KindUser, k.own(p.pid)) {
			return want, true
		}
	}
	if next, _, ok := p.pt.Translate(page + arch.PageSize); ok {
		base := next.PageBase()
		if base >= arch.PageSize {
			want := base - arch.PageSize
			if k.mem.AllocFrameAt(want, physmem.KindUser, k.own(p.pid)) {
				return want, true
			}
		}
	}
	return arch.NoPhysAddr, false
}

// thpFault attempts to promote the fault into a 2MB mapping: the region
// must be empty, fully covered by one VMA, and an aligned 512-frame block
// must be available. ok=false means the caller should take the 4KB path.
func (p *Process) thpFault(page arch.VirtAddr) (FaultKind, bool, error) {
	k := p.kernel
	base := page &^ arch.VirtAddr(pagetable.LargePageMask)
	region, found := p.findVMA(base)
	if !found || region.end < base+pagetable.LargePageBytes {
		return 0, false, nil
	}
	const hugePages = pagetable.LargePageBytes / arch.PageSize
	if p.pt.AnyMapped(base, hugePages) {
		return 0, false, nil
	}
	k.stats.BuddyCalls++
	pa, ok := k.mem.AllocGroup(hugePages, physmem.KindUser, k.own(p.pid))
	if !ok {
		return 0, false, nil
	}
	if err := p.pt.MapLarge(base, pa, pagetable.FlagWritable); err != nil {
		return 0, true, err
	}
	p.rss += hugePages
	k.stats.Faults[FaultTHP]++
	k.checkPressure()
	return FaultTHP, true, nil
}

// demoteIfLarge splits the huge page covering va (if any) into 4KB
// mappings so per-page operations (free, COW, swap) can proceed — Linux's
// THP split. It reports whether a split happened.
func (p *Process) demoteIfLarge(va arch.VirtAddr) (bool, error) {
	if !p.pt.IsLargeMapped(va) {
		return false, nil
	}
	if err := p.pt.Demote(va); err != nil {
		return false, err
	}
	p.kernel.stats.THPSplits++
	return true, nil
}

// allocUserFrame takes one page from the buddy allocator, reclaiming under
// pressure if the first attempt fails. Deflate-on-OOM is not spelled out
// here: the physmem empty-pool hook (deflateOnOOM) already fires inside
// AllocFrame, so a host-inflated balloon can never starve the guest's own
// allocations while it still holds frames it could give back.
func (k *Kernel) allocUserFrame(pid int) (arch.PhysAddr, bool) {
	k.stats.BuddyCalls++
	pa, ok := k.mem.AllocFrame(physmem.KindUser, k.own(pid))
	if !ok {
		k.runReclaim()
		pa, ok = k.mem.AllocFrame(physmem.KindUser, k.own(pid))
	}
	if ok {
		k.checkPressure()
	}
	return pa, ok
}

func (p *Process) copyOnWrite(page arch.VirtAddr, oldPA arch.PhysAddr) (FaultKind, error) {
	k := p.kernel
	refs := k.frameRefs(oldPA)
	if refs == 1 {
		// Last sharer: just make it writable again.
		p.pt.SetFlags(page, pagetable.FlagWritable)
		k.stats.Faults[FaultCOW]++
		return FaultCOW, nil
	}
	newPA, ok := k.allocUserFrame(p.pid)
	if !ok {
		return 0, ErrOutOfMemory
	}
	k.putFrame(oldPA)
	if err := p.pt.Map(page, newPA, pagetable.FlagWritable); err != nil {
		return 0, err
	}
	k.stats.Faults[FaultCOW]++
	return FaultCOW, nil
}

// frameRefs returns the share count of a frame (1 when unshared).
func (k *Kernel) frameRefs(pa arch.PhysAddr) int {
	if n, ok := k.shared[pa.PageBase()]; ok {
		return n
	}
	return 1
}

// getFrame increments a frame's share count.
func (k *Kernel) getFrame(pa arch.PhysAddr) {
	pa = pa.PageBase()
	if n, ok := k.shared[pa]; ok {
		k.shared[pa] = n + 1
	} else {
		k.shared[pa] = 2
	}
}

// putFrame decrements a frame's share count, freeing it at zero. It returns
// true when the frame was actually freed.
func (k *Kernel) putFrame(pa arch.PhysAddr) bool {
	pa = pa.PageBase()
	if n, ok := k.shared[pa]; ok {
		if n > 2 {
			k.shared[pa] = n - 1
		} else {
			delete(k.shared, pa)
		}
		return false
	}
	k.mem.FreeBlock(pa)
	return true
}

// Free releases the pages overlapping [va, va+bytes), as the application
// calling free() on a malloc'd region. Mapped pages are unmapped; pages
// belonging to live reservations return to reserved state, and a
// reservation whose last mapped page is freed dissolves entirely (§4.3).
// The VMA itself stays (like MADV_DONTNEED); use Munmap to drop it.
func (p *Process) Free(va arch.VirtAddr, bytes uint64) error {
	if bytes == 0 {
		return ErrBadRange
	}
	start := va.PageBase()
	end := arch.VirtAddr(arch.AlignUp(uint64(va)+bytes, arch.PageSize))
	for page := start; page < end; page += arch.PageSize {
		p.freePage(page)
	}
	return nil
}

func (p *Process) freePage(page arch.VirtAddr) {
	k := p.kernel
	if _, err := p.demoteIfLarge(page); err != nil {
		// Demotion needs one page-table node; if even that fails the
		// kernel is out of memory and the free cannot be honoured at
		// page granularity. Leave the huge page mapped.
		return
	}
	pa, _, ok := p.pt.Unmap(page)
	if !ok {
		return
	}
	p.rss--
	if p.part != nil && k.frameRefs(pa) > 1 {
		// The frame is COW-shared with a forked relative, so it cannot
		// return to the reservation (the sharer keeps using it). Dissolve
		// the group — the same escape hatch §4.4 prescribes for swap and
		// THP — and drop this process's reference.
		p.part.DissolveGroup(page, func(groupPA arch.PhysAddr) { k.mem.FreeBlock(groupPA) })
		k.putFrame(pa)
		return
	}
	if p.part != nil {
		handled := p.part.NotifyFree(page, pa, func(groupPA arch.PhysAddr) {
			// Whole group dissolves: every page returns to the buddy
			// allocator, whatever state it was in.
			k.mem.FreeBlock(groupPA)
		})
		if handled {
			// If the group is still alive the freed frame goes back to
			// reserved state under kernel ownership.
			if _, live := p.part.Lookup(page); live {
				k.mem.SetKind(pa, physmem.KindReserved, k.own(p.pid))
			}
			return
		}
	}
	k.putFrame(pa)
}

// SwapOut evicts the page at va, as the kernel choosing it for swapping or
// THP compaction. Per §4.4 ("Swap and THP"), choosing a page that belongs
// to a live reservation triggers reclamation of that whole reservation —
// its unmapped pages return to the buddy allocator and the PaRT entry
// disappears — before the page itself is evicted. It reports whether a
// page was actually evicted.
func (p *Process) SwapOut(va arch.VirtAddr) bool {
	k := p.kernel
	page := va.PageBase()
	if _, err := p.demoteIfLarge(page); err != nil {
		return false
	}
	pa, _, ok := p.pt.Unmap(page)
	if !ok {
		return false
	}
	p.rss--
	if p.part != nil {
		p.part.DissolveGroup(page, func(groupPA arch.PhysAddr) { k.mem.FreeBlock(groupPA) })
	}
	k.putFrame(pa)
	return true
}

// Munmap removes the VMA starting exactly at va (as returned by Mmap),
// freeing all its pages.
func (p *Process) Munmap(va arch.VirtAddr) error {
	for i, region := range p.vmas {
		if region.start == va {
			if err := p.Free(region.start, uint64(region.end-region.start)); err != nil {
				return err
			}
			p.vmas = append(p.vmas[:i], p.vmas[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: no VMA at %#x", ErrBadRange, uint64(va))
}

// Fork creates a copy-on-write child (§4.4). Mapped pages are shared
// read-only with COW; the parent's reservations are not copied — the child
// consults them on fault and claims unmapped pages from them, but cannot
// create reservations in the parent's map.
func (p *Process) Fork(name string) (*Process, error) {
	k := p.kernel
	child, err := k.Spawn(name, p.memLimit)
	if err != nil {
		return nil, err
	}
	child.parent = p
	child.vmas = append([]vma(nil), p.vmas...)
	child.nextMmap = p.nextMmap
	// Huge pages are split before COW sharing, as Linux THP does on fork
	// write-protection.
	var largeVAs []arch.VirtAddr
	p.pt.ForEachLarge(func(va arch.VirtAddr) bool {
		largeVAs = append(largeVAs, va)
		return true
	})
	for _, va := range largeVAs {
		if _, err := p.demoteIfLarge(va); err != nil {
			return nil, err
		}
	}
	var mapErr error
	p.pt.ForEachMapped(func(va arch.VirtAddr, pa arch.PhysAddr, flags pagetable.Flags) bool {
		cowFlags := (flags &^ pagetable.FlagWritable) | pagetable.FlagCOW
		p.pt.SetFlags(va, cowFlags)
		if err := child.pt.Map(va, pa, cowFlags); err != nil {
			mapErr = err
			return false
		}
		k.getFrame(pa)
		child.rss++
		return true
	})
	if mapErr != nil {
		return nil, mapErr
	}
	return child, nil
}

// Exit tears the process down: reservations dissolve, mapped frames are
// released (modulo sharing), and the page table is destroyed.
func (p *Process) Exit() {
	if !p.alive {
		return
	}
	k := p.kernel
	if p.part != nil {
		p.part.DestroyAll(func(pa arch.PhysAddr) { k.mem.FreeBlock(pa) })
	}
	p.pt.ForEachMapped(func(va arch.VirtAddr, pa arch.PhysAddr, _ pagetable.Flags) bool {
		k.putFrame(pa)
		return true
	})
	p.pt.Destroy()
	p.rss = 0
	p.alive = false
}

// checkPressure triggers the reclaim daemon when used memory exceeds the
// watermark (§4.3). Used memory at exactly the watermark counts as
// pressure (>=), so a kernel sitting on the boundary still reclaims.
func (k *Kernel) checkPressure() {
	if !k.belowWatermark() {
		k.runReclaim()
	}
}

// belowWatermark reports whether used memory is strictly below the §4.3
// reclaim watermark.
func (k *Kernel) belowWatermark() bool {
	return float64(k.mem.UsedFrames()) < k.cfg.ReclaimWatermark*float64(k.mem.NumFrames())
}

// runReclaim implements the daemon: pick a random process with live
// reservations and destroy reservations until memory drops below the
// watermark (or nothing remains to reclaim).
func (k *Kernel) runReclaim() { k.reclaimUntil(k.belowWatermark) }

// reclaimUntil is the daemon loop with a caller-chosen goal: destroy
// reservations of randomly chosen victim processes until done reports
// success or nothing reclaimable remains. The balloon driver reuses it
// with a frees-available goal that ignores the watermark.
func (k *Kernel) reclaimUntil(done func() bool) {
	k.stats.ReclaimRuns++
	for !done() {
		victims := k.procsWithReservations()
		if len(victims) == 0 {
			return
		}
		v := victims[k.rng.Intn(len(victims))]
		infos := v.part.Reclaim(func(pa arch.PhysAddr) { k.mem.FreeBlock(pa) }, done)
		if len(infos) == 0 {
			return
		}
		for _, info := range infos {
			k.stats.ReclaimedReservations++
			k.stats.ReclaimedPages += uint64(info.FreedPages)
		}
	}
}

func (k *Kernel) procsWithReservations() []*Process {
	var out []*Process
	for _, p := range k.procs {
		if p.alive && p.part != nil && p.part.Live() > 0 {
			out = append(out, p)
		}
	}
	return out
}

// UnusedReservedPages sums reserved-but-unmapped pages over all processes —
// the system-wide §6.2 gauge.
func (k *Kernel) UnusedReservedPages() int {
	n := 0
	for _, p := range k.procs {
		if p.alive && p.part != nil {
			n += p.part.UnusedPages()
		}
	}
	return n
}
