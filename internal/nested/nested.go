// Package nested implements the two-dimensional (nested) page walk of a
// virtualized x86 CPU (paper §2.5).
//
// On a TLB miss, the walker traverses the guest page table; every guest PT
// node it reads lives at a guest-physical address that must itself be
// translated through the host page table, and the final guest-physical data
// address needs one more host walk — up to 4×5 + 4 = 24 memory accesses.
// Every one of those accesses goes through the simulated cache hierarchy,
// and the walker attributes each to the guest-PT or host-PT dimension. The
// per-dimension "served by main memory" counts and cycle totals are exactly
// the quantities in the paper's Tables 1 and 4.
//
// Three translation caches accelerate the walk, mirroring real hardware:
//
//   - the main two-level TLB holds complete gVA→hPA translations (a hit
//     skips everything);
//   - a nested TLB holds gPA→hPA page translations, so host walks for the
//     hot, few guest-PT-node pages are usually skipped, while host walks
//     for cold data pages are not — reproducing the paper's observation
//     that guest PT accesses are cache-friendly while host PT accesses go
//     to memory;
//   - per-dimension page-walk caches (PWCs) map address prefixes to leaf
//     PT nodes, so warm walks touch mostly leaf PTEs, whose cache behaviour
//     is what PTEMagnet manipulates.
package nested

import (
	"fmt"
	"strings"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/cache"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/tlb"
)

// Config sizes the walker's translation structures.
type Config struct {
	// TLB sizes the main two-level gVA→hPA TLB.
	TLB tlb.TwoLevelConfig
	// NTLB sizes the nested gPA→hPA TLB.
	NTLB tlb.Config
	// GuestPWC and HostPWC size the page-walk caches (prefix → leaf PT
	// node).
	GuestPWC tlb.Config
	HostPWC  tlb.Config
}

// DefaultConfig returns Broadwell-like sizes.
func DefaultConfig() Config {
	return Config{
		TLB:      tlb.DefaultConfig(),
		NTLB:     tlb.Config{Entries: 128, Ways: 8},
		GuestPWC: tlb.Config{Entries: 32, Ways: 4},
		HostPWC:  tlb.Config{Entries: 32, Ways: 4},
	}
}

// Translation prices in cycles, the same for every walker.
const (
	// tlbHitCycles is charged for a main-TLB hit (address translation
	// fully pipelined ≈ 1 cycle).
	tlbHitCycles = 1
	// hostFaultCycles is charged per host page fault (VM exit + hypervisor
	// allocation). Host faults are rare after warm-up.
	hostFaultCycles = 2200
)

// Dimension distinguishes the two page tables of a nested walk.
type Dimension uint8

const (
	// DimGuest is the guest page table.
	DimGuest Dimension = iota
	// DimHost is the host page table.
	DimHost
	// NumDimensions is the number of walk dimensions.
	NumDimensions
)

// String names the dimension.
func (d Dimension) String() string {
	switch d {
	case DimGuest:
		return "guest"
	case DimHost:
		return "host"
	default:
		return fmt.Sprintf("Dimension(%d)", uint8(d))
	}
}

// Stats aggregates walker activity. All cycle figures are translation-only
// (data-access cycles are charged by the caller).
type Stats struct {
	// Lookups and TLBHits describe main-TLB behaviour; every lookup that
	// is not a hit triggered a nested walk.
	Lookups uint64
	TLBHits uint64
	// Walks counts completed nested walks (a walk interrupted by a guest
	// fault and retried counts once per attempt).
	Walks uint64
	// GuestFaults counts walks aborted for guest page-fault handling.
	GuestFaults uint64
	// HostFaults counts host faults taken inside walks.
	HostFaults uint64
	// Accesses counts PT-entry reads per dimension.
	Accesses [NumDimensions]uint64
	// Served counts PT-entry reads per dimension per serving cache level.
	Served [NumDimensions][cache.NumLevels]uint64
	// Cycles accumulates PT-entry access latency per dimension.
	Cycles [NumDimensions]uint64
	// WalkCycles accumulates total translation cycles of nested walks
	// (both dimensions plus fault overhead).
	WalkCycles uint64
	// NTLBHits counts nested-TLB hits; PWCHits per-dimension PWC hits.
	NTLBHits uint64
	PWCHits  [NumDimensions]uint64
	// WalkHist buckets completed walks by latency: bucket i counts walks
	// whose translation cost was in [2^i, 2^(i+1)) cycles. The shift from
	// low to high buckets under fragmentation is the per-walk view of the
	// aggregate cycle blow-up.
	WalkHist [16]uint64
}

// histBucket maps a walk latency to its WalkHist bucket.
func histBucket(cycles uint64) int {
	b := 0
	for cycles > 1 && b < len(Stats{}.WalkHist)-1 {
		cycles >>= 1
		b++
	}
	return b
}

// WalkLatencyPercentile returns the smallest bucket upper bound (in cycles)
// such that at least frac of recorded walks fall at or below it. Returns 0
// when no walks were recorded.
func (s *Stats) WalkLatencyPercentile(frac float64) uint64 {
	var total uint64
	for _, c := range s.WalkHist {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(frac * float64(total))
	if want == 0 {
		want = 1
	}
	var seen uint64
	for i, c := range s.WalkHist {
		seen += c
		if seen >= want {
			return uint64(1) << (i + 1)
		}
	}
	return uint64(1) << len(s.WalkHist)
}

// MemServed returns the number of PT accesses in dimension d served by main
// memory — the paper's "page table accesses served by main memory" metric.
func (s *Stats) MemServed(d Dimension) uint64 { return s.Served[d][cache.LevelMemory] }

// Delta returns the field-wise difference s - prev, for windowed
// measurement (e.g. the §3.3 steady phase after the init boundary).
func (s Stats) Delta(prev Stats) Stats {
	d := s
	d.Lookups -= prev.Lookups
	d.TLBHits -= prev.TLBHits
	d.Walks -= prev.Walks
	d.GuestFaults -= prev.GuestFaults
	d.HostFaults -= prev.HostFaults
	d.WalkCycles -= prev.WalkCycles
	d.NTLBHits -= prev.NTLBHits
	for i := range d.WalkHist {
		d.WalkHist[i] -= prev.WalkHist[i]
	}
	for dim := range d.Accesses {
		d.Accesses[dim] -= prev.Accesses[dim]
		d.Cycles[dim] -= prev.Cycles[dim]
		d.PWCHits[dim] -= prev.PWCHits[dim]
		for lv := range d.Served[dim] {
			d.Served[dim][lv] -= prev.Served[dim][lv]
		}
	}
	return d
}

// TLBMisses returns Lookups - TLBHits.
func (s *Stats) TLBMisses() uint64 { return s.Lookups - s.TLBHits }

// Outcome describes one Translate call.
type Outcome struct {
	// HPA is the translated host-physical address (valid when Ok).
	HPA arch.PhysAddr
	// Ok reports a completed translation. When false, GuestFault
	// indicates the guest page table lacked a present, sufficiently
	// permissive mapping and the caller must run the guest fault handler
	// and retry.
	Ok         bool
	GuestFault bool
	// TLBHit reports the fast path.
	TLBHit bool
	// Cycles is the translation latency charged for this access.
	Cycles uint64
	// Err reports a host fault the hypervisor could not serve (host
	// memory exhausted, or an injected failure); Ok and GuestFault are
	// false and the walk is abandoned.
	Err error
}

// Walker performs nested translations for one VM.
type Walker struct {
	caches *cache.Hierarchy
	vm     *hostos.VM
	tlb    *tlb.TwoLevel
	ntlb   *tlb.TLB
	gpwc   *tlb.TLB
	hpwc   *tlb.TLB
	stats  Stats
	// guestBuf and hostBuf hold the entries of the current guest and host
	// walks, reused so a walk allocates nothing. They are separate because
	// host walks run while the guest walk's entries are being read.
	guestBuf, hostBuf []pagetable.Access
	// fault is where the guest walk of the last walk that ended in a guest
	// fault stopped (FaultStop).
	fault pagetable.Stop
}

// writableBit marks writable translations inside TLB payload addresses.
// Frame addresses are page aligned, so bit 0 is free.
const writableBit arch.PhysAddr = 1

// New builds a walker for the given VM on the given cache hierarchy.
func New(cfg Config, caches *cache.Hierarchy, vm *hostos.VM) *Walker {
	return &Walker{
		caches: caches,
		vm:     vm,
		tlb:    tlb.NewTwoLevel(cfg.TLB),
		ntlb:   tlb.New(cfg.NTLB),
		gpwc:   tlb.New(cfg.GuestPWC),
		hpwc:   tlb.New(cfg.HostPWC),
	}
}

// Snapshot returns a copy of the walker counters.
func (w *Walker) Snapshot() Stats { return w.stats }

// RegisterObs registers the walker's counters on r under prefix: the
// top-level lookup/walk/fault totals, per-dimension PT-access breakdowns
// (by serving cache level), and the walk-latency histogram.
func (w *Walker) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"lookups", func() uint64 { return w.stats.Lookups })
	r.Counter(prefix+"tlb_hits", func() uint64 { return w.stats.TLBHits })
	r.Counter(prefix+"walks", func() uint64 { return w.stats.Walks })
	r.Counter(prefix+"guest_faults", func() uint64 { return w.stats.GuestFaults })
	r.Counter(prefix+"host_faults", func() uint64 { return w.stats.HostFaults })
	r.Counter(prefix+"walk_cycles", func() uint64 { return w.stats.WalkCycles })
	r.Counter(prefix+"ntlb_hits", func() uint64 { return w.stats.NTLBHits })
	for d := Dimension(0); d < NumDimensions; d++ {
		d := d
		dp := prefix + d.String() + "."
		r.Counter(dp+"accesses", func() uint64 { return w.stats.Accesses[d] })
		r.Counter(dp+"cycles", func() uint64 { return w.stats.Cycles[d] })
		r.Counter(dp+"pwc_hits", func() uint64 { return w.stats.PWCHits[d] })
		for lv := cache.Level(0); lv < cache.NumLevels; lv++ {
			lv := lv
			r.Counter(dp+"served."+strings.ToLower(lv.String()), func() uint64 {
				return w.stats.Served[d][lv]
			})
		}
	}
	r.Histogram(prefix+"walk_hist", len(Stats{}.WalkHist), func(b int) uint64 {
		return w.stats.WalkHist[b]
	})
}

// TLB exposes the main TLB (for miss-ratio reporting).
func (w *Walker) TLB() *tlb.TwoLevel { return w.tlb }

// pwcKey derives the PWC tag: the address prefix that selects a leaf PT
// node (everything above the leaf index — 2MB regions).
func pwcKey(a uint64) uint64 { return a >> (arch.PageShift + arch.PTIndexBits) }

// TranslateFast is the main-TLB fast path for the guest-virtual address va
// of the process with the given ASID; write marks stores, so read-only
// (COW) mappings fault. On a hit with sufficient permissions it returns
// the completed Outcome without touching any of the 2D-walk machinery
// (guest page table, PWCs, nested TLB, caches). ok=false means the caller
// must take TranslateSlow — either a plain miss, or a write to a cached
// read-only translation (the stale entry is dropped so the walk reaches
// the guest fault path).
func (w *Walker) TranslateFast(asid uint32, va arch.VirtAddr, write bool) (Outcome, bool) {
	w.stats.Lookups++
	vpn := va.PageNumber()
	if payload, ok := w.tlb.Lookup(asid, vpn); ok {
		if !write || payload&writableBit != 0 {
			w.stats.TLBHits++
			return Outcome{
				HPA:    (payload &^ writableBit) + arch.PhysAddr(va.PageOffset()),
				Ok:     true,
				TLBHit: true,
				Cycles: tlbHitCycles,
			}, true
		}
		// Write to a read-only translation: force the fault path.
		w.tlb.InvalidatePage(asid, vpn)
	}
	return Outcome{}, false
}

// TranslateSlow performs the full 2D walk through the guest page table gpt
// on behalf of cpu, after a failed TranslateFast. Callers must have tried
// TranslateFast first: every walk is preceded by one counted lookup. A
// walk that ends in a guest fault leaves where its guest walk stopped in
// FaultStop.
func (w *Walker) TranslateSlow(cpu int, asid uint32, gpt *pagetable.Table, va arch.VirtAddr, write bool) Outcome {
	w.stats.Walks++
	var cycles uint64

	// Guest dimension: find the leaf PT node, via the guest PWC when
	// possible.
	startLevel := gpt.Levels()
	startNode := gpt.Root()
	if nodeGPA, ok := w.gpwc.Lookup(asid, pwcKey(uint64(va))); ok {
		startLevel = 1
		startNode = nodeGPA
		w.stats.PWCHits[DimGuest]++
	}
	changes := gpt.Changes()
	accesses, gpa, flags, found := gpt.WalkAppend(w.guestBuf[:0], va, startLevel, startNode)
	w.guestBuf = accesses
	// A walk that ended on a level-1 entry read va's leaf node, which is
	// what the guest PWC caches.
	leafNode := arch.NoPhysAddr
	if last := accesses[len(accesses)-1]; last.Level == 1 {
		leafNode = last.EntryAddr.PageBase()
	}
	for _, a := range accesses {
		// Each guest PT entry lives at a guest-physical address that the
		// hardware must translate through the host dimension before the
		// read can be issued.
		entryHPA, c, err := w.translateGPA(cpu, a.EntryAddr)
		cycles += c
		if err != nil {
			return Outcome{Cycles: cycles, Err: err}
		}
		lv, lat := w.caches.Access(cpu, entryHPA)
		w.stats.Accesses[DimGuest]++
		w.stats.Served[DimGuest][lv]++
		w.stats.Cycles[DimGuest] += lat
		cycles += lat
	}
	if gpt.Changes() != changes {
		// A host fault served above ran balloon relief, which swapped out
		// guest pages and so rewrote the guest table the walk just read:
		// the leaf is re-read as it stands now, and a page dropped
		// meanwhile faults like one never mapped.
		gpa, flags, found, leafNode = gpt.Lookup(va)
	}
	if !found || write && flags&pagetable.FlagWritable == 0 {
		return w.guestFault(cycles, gpt.StopAt(va, accesses, changes))
	}
	if startLevel != 1 && leafNode != arch.NoPhysAddr {
		w.gpwc.Insert(asid, pwcKey(uint64(va)), leafNode)
	}

	// Host dimension for the data page.
	hpaPage, c, err := w.translateGPA(cpu, gpa.PageBase())
	cycles += c
	if err != nil {
		return Outcome{Cycles: cycles, Err: err}
	}
	if gpt.Changes() != changes {
		// The data page's own host fault can run balloon relief too: a
		// page dropped meanwhile faults, and the TLB never caches it.
		if _, _, found, _ = gpt.Lookup(va); !found {
			return w.guestFault(cycles, gpt.StopAt(va, accesses, changes))
		}
	}
	hpa := hpaPage + arch.PhysAddr(gpa.PageOffset())

	payload := hpaPage
	if flags&pagetable.FlagWritable != 0 {
		payload |= writableBit
	}
	w.tlb.Insert(asid, va.PageNumber(), payload)
	w.stats.WalkCycles += cycles
	w.stats.WalkHist[histBucket(cycles)]++
	return Outcome{HPA: hpa, Ok: true, Cycles: cycles}
}

// guestFault ends a walk that found no present mapping for va, or a
// read-only one for a write, at the guest walk's stop: the caller runs the
// guest fault handler and retries.
func (w *Walker) guestFault(cycles uint64, stop pagetable.Stop) Outcome {
	w.fault = stop
	w.stats.GuestFaults++
	w.stats.WalkCycles += cycles
	w.stats.WalkHist[histBucket(cycles)]++
	return Outcome{GuestFault: true, Cycles: cycles}
}

// FaultStop returns where the guest walk of the last TranslateSlow that
// ended in a guest fault stopped, for guestos.Process.HandleFaultAt: the
// stop holds va's entry as the walk read it, absent or read-only. It is
// the zero Stop when balloon relief rewrote the guest table during that
// walk, so the handler looks the page up from the root.
func (w *Walker) FaultStop() pagetable.Stop { return w.fault }

// translateGPA resolves a guest-physical address to host-physical, charging
// all host PT accesses to the host dimension. Host faults are handled
// transparently (hypervisor allocates on first touch); one the hypervisor
// cannot serve is returned as an error.
func (w *Walker) translateGPA(cpu int, gpa arch.PhysAddr) (arch.PhysAddr, uint64, error) {
	gfn := gpa.FrameNumber()
	if hpaPage, ok := w.ntlb.Lookup(0, gfn); ok {
		w.stats.NTLBHits++
		return hpaPage + arch.PhysAddr(uint64(gpa)&arch.PageMask), 0, nil
	}
	var cycles uint64
	hpt := w.vm.PageTable()
	hva := arch.VirtAddr(gpa)
	for attempt := 0; ; attempt++ {
		startLevel := hpt.Levels()
		startNode := hpt.Root()
		if nodeHPA, ok := w.hpwc.Lookup(0, pwcKey(uint64(hva))); ok {
			startLevel = 1
			startNode = nodeHPA
			w.stats.PWCHits[DimHost]++
		}
		changes := hpt.Changes()
		accesses, hpa, _, found := hpt.WalkAppend(w.hostBuf[:0], hva, startLevel, startNode)
		w.hostBuf = accesses
		for _, a := range accesses {
			lv, lat := w.caches.Access(cpu, a.EntryAddr)
			w.stats.Accesses[DimHost]++
			w.stats.Served[DimHost][lv]++
			w.stats.Cycles[DimHost] += lat
			cycles += lat
		}
		if found {
			// A walk that found a 4KB page ended on its level-1 entry,
			// whose node is what the PWC caches.
			if last := accesses[len(accesses)-1]; startLevel != 1 && last.Level == 1 {
				w.hpwc.Insert(0, pwcKey(uint64(hva)), last.EntryAddr.PageBase())
			}
			hpaPage := hpa.PageBase()
			w.ntlb.Insert(0, gfn, hpaPage)
			return hpa, cycles, nil
		}
		if attempt > 0 {
			// The hypervisor served the fault but the page is still
			// unmapped.
			return 0, cycles, fmt.Errorf("nested: host fault at gpa %#x left the page unmapped", uint64(gpa))
		}
		if err := w.vm.HandleFaultAt(gpa, hpt.StopAt(hva, accesses, changes)); err != nil {
			// %w keeps the typed chain (hostos.OOMError, injected-fault
			// markers) reachable for errors.Is classification.
			return 0, cycles, fmt.Errorf("nested: host fault failed: %w", err)
		}
		w.stats.HostFaults++
		cycles += hostFaultCycles
	}
}

// InvalidateGuestPWC drops the guest page-walk-cache entry for va's 2MB
// region. The guest kernel's THP fault calls it: the region's new large
// mapping freed the empty leaf node an earlier 4KB walk may have cached,
// so a walk starting there would read a node the table no longer has.
func (w *Walker) InvalidateGuestPWC(asid uint32, va arch.VirtAddr) {
	w.gpwc.InvalidatePage(asid, pwcKey(uint64(va)))
}

// InvalidateGPA drops the nested-TLB translation for gpa's frame. The
// host VM calls it when it unbacks a guest page (hostos.VM.Unback): the
// host frame returns to the buddy allocator, so a cached gPA→hPA entry
// would resolve to memory the guest no longer owns.
func (w *Walker) InvalidateGPA(gpa arch.PhysAddr) {
	w.ntlb.InvalidatePage(0, gpa.FrameNumber())
}

// InvalidateRange drops the translations for every page of [start, end)
// from the main TLB: the guest kernel's shootdown for a free, a COW break
// and a swap-out. end must be page-aligned. Like tlb.TLB.InvalidateRange,
// it matches per-page invalidation only while each set holds a key once.
func (w *Walker) InvalidateRange(asid uint32, start, end arch.VirtAddr) {
	if end <= start {
		return
	}
	w.tlb.InvalidateRange(asid, start.PageNumber(), end.PageNumber())
}

// InvalidateASID drops all of a process's translations (fork).
func (w *Walker) InvalidateASID(asid uint32) {
	w.tlb.InvalidateASID(asid)
	w.gpwc.InvalidateASID(asid)
}

// InvalidateAll drops every cached translation and walk-cache entry: main
// TLB, nested TLB, and both paging-structure caches. VM teardown uses it —
// once the host page table is gone, any cached gPA→hPA mapping is stale.
// Counters are untouched; the dead VM's totals stay reportable.
func (w *Walker) InvalidateAll() {
	w.tlb.Flush()
	w.ntlb.Flush()
	w.gpwc.Flush()
	w.hpwc.Flush()
}

// Rebind repoints the walker at a new host VM and cache hierarchy — the
// destination half of a live migration, where the guest keeps its vCPU
// package (this walker, with its cumulative counters) but every cached
// translation dies: gVA→hPA and gPA→hPA entries refer to the source host's
// frames, and the destination re-allocated all of them. Equivalent to
// InvalidateAll plus the pointer swap; counters are untouched, so the
// guest's walk totals span its whole life across both hosts.
func (w *Walker) Rebind(caches *cache.Hierarchy, vm *hostos.VM) {
	w.InvalidateAll()
	w.caches = caches
	w.vm = vm
}
