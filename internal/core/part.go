// Package core implements PTEMagnet's Page Reservation Table (PaRT) — the
// paper's primary contribution (§4).
//
// A PaRT is a per-process four-level radix tree indexed by the virtual
// address of a page fault rounded down to a reservation group (32KB for the
// paper's eight-page groups). Each leaf is one reservation: a pointer to the
// base of a contiguous, naturally aligned group of physical pages taken
// eagerly from the buddy allocator, an occupancy mask recording which pages
// the application has actually mapped, and a lock. Interior nodes carry
// their own locks so concurrently faulting threads contend only on the
// paths they share (§4.2's fine-grained locking; a coarse single-lock mode
// exists for the ablation study).
//
// Life cycle of a reservation, exactly as §4.2-§4.3 prescribe:
//
//   - First fault to a fully-unmapped group: allocate the whole group from
//     the buddy allocator, map only the faulting page, keep the other pages
//     reserved (owned by the kernel, quickly reclaimable).
//   - Later faults within the group: claim the corresponding reserved page
//     without calling the buddy allocator.
//   - When the last page of a group is claimed, the entry is deleted — the
//     reservation has fully converted into ordinary mapped memory.
//   - free() of a reserved-group page returns that page to the reservation;
//     when a reservation's mask drops back to empty the entry is deleted
//     and every group page returns to the buddy allocator.
//   - Under memory pressure, a reclaim daemon walks the PaRT and releases
//     the unmapped pages of reservations until pressure subsides. Mapped
//     pages are untouched, so applications keep the page-walk benefit of
//     what was already allocated contiguously.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ptemagnet/internal/arch"
)

// Config parameterizes a PaRT.
type Config struct {
	// GroupPages is the reservation granularity in pages; a power of two
	// in [1, 64]. The paper's design point is 8: eight 8-byte leaf PTEs
	// fill one 64-byte cache block. Other values exist for the
	// granularity ablation.
	GroupPages int
	// CoarseLocking replaces the per-node locks with one table lock, the
	// scalability strawman §4.2 argues against.
	CoarseLocking bool
}

// DefaultConfig returns the paper's design point: 8-page (32KB) groups with
// fine-grained per-node locking.
func DefaultConfig() Config { return Config{GroupPages: arch.GroupPages} }

// radix geometry: keys are group numbers (VA >> groupShift), consumed in
// four 9-bit chunks, most significant first — the same shape as the
// hardware page table, as the paper specifies.
const (
	radixLevels   = 4
	radixBits     = 9
	radixFanout   = 1 << radixBits
	radixKeyBits  = radixLevels * radixBits
	radixKeyLimit = uint64(1) << radixKeyBits
)

// Reservation is one live PaRT leaf.
type Reservation struct {
	mu sync.Mutex
	// base is the physical address of the group's first page.
	base arch.PhysAddr
	// mask has bit i set when page i of the group is mapped by the
	// application.
	mask uint64
	// groupVA is the group-aligned virtual address this reservation backs.
	groupVA arch.VirtAddr
	// dead marks a reservation that has been deleted (fully claimed,
	// fully freed, or reclaimed) so that a racing claimant retries.
	dead bool
}

// Base returns the physical address of the group's first page.
func (r *Reservation) Base() arch.PhysAddr { return r.base }

// GroupVA returns the group-aligned virtual address the reservation backs.
func (r *Reservation) GroupVA() arch.VirtAddr { return r.groupVA }

// Mask returns the occupancy mask (bit i set = page i mapped).
func (r *Reservation) Mask() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mask
}

type radixNode struct {
	mu       sync.Mutex
	children [radixFanout]any // *radixNode or *Reservation
}

// Stats captures PaRT activity counters.
type Stats struct {
	// Created counts reservations established.
	Created uint64
	// FullyMapped counts reservations deleted because every page was
	// claimed.
	FullyMapped uint64
	// FullyFreed counts reservations deleted because the application
	// freed every mapped page.
	FullyFreed uint64
	// Reclaimed counts reservations destroyed by the pressure daemon.
	Reclaimed uint64
	// Hits counts page faults served from an existing reservation — each
	// is a buddy-allocator call avoided (§6.4).
	Hits uint64
}

// Delta returns the counter-wise difference s - prev.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Created:     s.Created - prev.Created,
		FullyMapped: s.FullyMapped - prev.FullyMapped,
		FullyFreed:  s.FullyFreed - prev.FullyFreed,
		Reclaimed:   s.Reclaimed - prev.Reclaimed,
		Hits:        s.Hits - prev.Hits,
	}
}

// PaRT is the Page Reservation Table of one process.
type PaRT struct {
	cfg        Config
	groupShift uint
	root       *radixNode
	coarse     sync.Mutex

	live        atomic.Int64 // live reservations
	unusedPages atomic.Int64 // reserved-but-unmapped pages across live reservations

	statsMu sync.Mutex
	stats   Stats
}

// ConfigError reports an invalid configuration field: which field, the
// offending value, and the constraint it violates. Both the PaRT and the
// machine layer (vm.HostConfig) return it from their Validate methods.
type ConfigError struct {
	// Field names the offending configuration field (e.g. "GroupPages").
	Field string
	// Value is the rejected value.
	Value any
	// Reason states the violated constraint.
	Reason string
}

// Error renders the violation.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("invalid config: %s = %v (%s)", e.Field, e.Value, e.Reason)
}

// Validate checks cfg and returns a *ConfigError describing the first
// violation, or nil. GroupPages must be set explicitly — use
// DefaultConfig for the paper's design point.
func (c Config) Validate() error {
	if c.GroupPages <= 0 || c.GroupPages > 64 || !arch.IsPowerOfTwo(uint64(c.GroupPages)) {
		return &ConfigError{Field: "GroupPages", Value: c.GroupPages,
			Reason: "must be a power of two in [1, 64]"}
	}
	return nil
}

// New creates an empty PaRT, rejecting invalid configurations with a
// *ConfigError.
func New(cfg Config) (*PaRT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	shift := uint(arch.PageShift)
	for p := cfg.GroupPages; p > 1; p >>= 1 {
		shift++
	}
	return &PaRT{cfg: cfg, groupShift: shift, root: &radixNode{}}, nil
}

// MustNew is New for configurations known to be valid; it panics on error.
func MustNew(cfg Config) *PaRT {
	p, err := New(cfg)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// Config returns the table's configuration.
func (p *PaRT) Config() Config { return p.cfg }

// GroupBytes returns the reservation group span in bytes.
func (p *PaRT) GroupBytes() uint64 { return uint64(p.cfg.GroupPages) << arch.PageShift }

// GroupBase rounds va down to its reservation-group boundary under this
// table's granularity.
func (p *PaRT) GroupBase(va arch.VirtAddr) arch.VirtAddr {
	return va &^ arch.VirtAddr(p.GroupBytes()-1)
}

// GroupIndex returns the index of va's page within its group.
func (p *PaRT) GroupIndex(va arch.VirtAddr) int {
	return int((uint64(va) >> arch.PageShift) & uint64(p.cfg.GroupPages-1))
}

func (p *PaRT) key(va arch.VirtAddr) uint64 {
	k := uint64(va) >> p.groupShift
	if k >= radixKeyLimit {
		panic(fmt.Sprintf("core: virtual address %#x beyond PaRT key space", uint64(va)))
	}
	return k
}

func radixIndex(key uint64, level int) int {
	// level 4 (root) consumes the most significant chunk.
	shift := uint((level - 1) * radixBits)
	return int((key >> shift) & (radixFanout - 1))
}

// Live returns the number of live reservations.
func (p *PaRT) Live() int { return int(p.live.Load()) }

// UnusedPages returns the number of reserved-but-unmapped pages across all
// live reservations — the §6.2 memory-overhead gauge.
func (p *PaRT) UnusedPages() int { return int(p.unusedPages.Load()) }

// Snapshot returns a copy of the activity counters.
func (p *PaRT) Snapshot() Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

func (p *PaRT) bump(f func(*Stats)) {
	p.statsMu.Lock()
	f(&p.stats)
	p.statsMu.Unlock()
}

// Lookup finds the live reservation covering va, if any.
func (p *PaRT) Lookup(va arch.VirtAddr) (*Reservation, bool) {
	if p.cfg.CoarseLocking {
		p.coarse.Lock()
		defer p.coarse.Unlock()
	}
	return p.lookup(va)
}

// lookup is Lookup without the coarse-lock acquisition, for callers that
// already hold it.
func (p *PaRT) lookup(va arch.VirtAddr) (*Reservation, bool) {
	key := p.key(va)
	n := p.leafNode(key, false)
	if n == nil {
		return nil, false
	}
	n.mu.Lock()
	child := n.children[radixIndex(key, 1)]
	n.mu.Unlock()
	if child == nil {
		return nil, false
	}
	return child.(*Reservation), true
}

// leafNode descends to the level-1 node for key, locking each node only
// while it reads the child. With create, missing interior nodes are made on
// the way down; without, a missing one ends the descent with nil.
func (p *PaRT) leafNode(key uint64, create bool) *radixNode {
	n := p.root
	for level := radixLevels; level > 1; level-- {
		idx := radixIndex(key, level)
		n.mu.Lock()
		child := n.children[idx]
		if child == nil && create {
			child = &radixNode{}
			n.children[idx] = child
		}
		n.mu.Unlock()
		if child == nil {
			return nil
		}
		n = child.(*radixNode)
	}
	return n
}

// FaultResult describes how HandleFault satisfied a fault.
type FaultResult uint8

const (
	// FaultNewReservation: a fresh group was allocated and the faulting
	// page claimed from it.
	FaultNewReservation FaultResult = iota
	// FaultReservationHit: the page came from an existing reservation —
	// no buddy-allocator call.
	FaultReservationHit
	// FaultNoMemory: the group allocation failed; the caller must fall
	// back to the default single-page path.
	FaultNoMemory
	// FaultClaimed: va's page is already claimed from a live reservation
	// (a forked child took it, §4.4); nothing was claimed and the caller
	// must fall back to the default single-page path.
	FaultClaimed
)

// String names the result.
func (r FaultResult) String() string {
	switch r {
	case FaultNewReservation:
		return "new-reservation"
	case FaultReservationHit:
		return "reservation-hit"
	case FaultNoMemory:
		return "no-memory"
	case FaultClaimed:
		return "claimed"
	default:
		return fmt.Sprintf("FaultResult(%d)", uint8(r))
	}
}

// HandleFault implements the PTEMagnet page-fault path for va: it claims
// va's page from its group's live reservation, or, when the group has none,
// calls alloc for one naturally aligned contiguous group of GroupPages pages
// and reserves it. alloc returns the group's base, or false to decline (the
// result is then FaultNoMemory); it is invoked at most once, only when no
// reservation exists, and runs while the leaf node's lock (the table lock
// in CoarseLocking mode) is held, so it must not call back into the PaRT.
// The returned pa is the physical page for va's page.
//
// When the claim fills the reservation, the entry is deleted (§4.2: "Once
// all the reserved pages inside a reservation are mapped, their PaRT entry
// can be safely deleted"). A page already claimed from a live reservation
// is left alone and reported as FaultClaimed.
func (p *PaRT) HandleFault(va arch.VirtAddr, alloc func() (arch.PhysAddr, bool)) (pa arch.PhysAddr, res FaultResult) {
	if p.cfg.CoarseLocking {
		p.coarse.Lock()
		defer p.coarse.Unlock()
	}
	idx := p.GroupIndex(va)
	for {
		r, existed := p.lookupOrInsert(va, alloc)
		if r == nil {
			return arch.NoPhysAddr, FaultNoMemory
		}
		r.mu.Lock()
		if r.dead {
			// Deleted between insert/lookup and claim; retry.
			r.mu.Unlock()
			continue
		}
		if r.mask&(1<<idx) != 0 {
			r.mu.Unlock()
			return arch.NoPhysAddr, FaultClaimed
		}
		pa = p.claim(r, idx)
		if existed {
			p.bump(func(s *Stats) { s.Hits++ })
			return pa, FaultReservationHit
		}
		return pa, FaultNewReservation
	}
}

// claim marks page idx of r mapped and returns its address. It is entered
// with r.mu held and releases it; the claim that fills r deletes it.
func (p *PaRT) claim(r *Reservation, idx int) arch.PhysAddr {
	r.mask |= 1 << idx
	pa := r.base + arch.PhysAddr(idx<<arch.PageShift)
	full := r.mask == p.fullMask()
	if full {
		r.dead = true
	}
	r.mu.Unlock()
	p.unusedPages.Add(-1)
	if full {
		p.remove(r.groupVA)
		p.live.Add(-1)
		p.bump(func(s *Stats) { s.FullyMapped++ })
	}
	return pa
}

func (p *PaRT) fullMask() uint64 {
	if p.cfg.GroupPages == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << p.cfg.GroupPages) - 1
}

// lookupOrInsert returns the reservation for va's group, creating it via
// alloc when absent. existed reports whether the reservation predated the
// call. A nil reservation means alloc failed.
func (p *PaRT) lookupOrInsert(va arch.VirtAddr, alloc func() (arch.PhysAddr, bool)) (r *Reservation, existed bool) {
	key := p.key(va)
	n := p.leafNode(key, true)
	idx := radixIndex(key, 1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if child := n.children[idx]; child != nil {
		return child.(*Reservation), true
	}
	base, ok := alloc()
	if !ok {
		return nil, false
	}
	if uint64(base)%p.GroupBytes() != 0 {
		panic(fmt.Sprintf("core: reservation base %#x not aligned to %d-page group", uint64(base), p.cfg.GroupPages))
	}
	r = &Reservation{base: base, groupVA: p.GroupBase(va)}
	n.children[idx] = r
	p.live.Add(1)
	p.unusedPages.Add(int64(p.cfg.GroupPages))
	p.bump(func(s *Stats) { s.Created++ })
	return r, false
}

// remove unlinks the leaf for groupVA. Interior nodes are retained, like the
// kernel retaining page-table pages.
func (p *PaRT) remove(groupVA arch.VirtAddr) {
	key := p.key(groupVA)
	n := p.leafNode(key, false)
	if n == nil {
		return
	}
	idx := radixIndex(key, 1)
	n.mu.Lock()
	n.children[idx] = nil
	n.mu.Unlock()
}

// NotifyFree informs the PaRT that the application freed the mapped page at
// va, which was backed by the physical page pa. If va's group has a live
// reservation and pa is that group's page for va (a fault may have been
// served by the default allocator even under a live reservation — e.g.
// after a forked child claimed the slot, §4.4 — in which case the frame is
// foreign and must go back to the buddy allocator directly), the page
// returns to reserved state; when the mask drops to empty the reservation
// is deleted and every group page is released through release, which runs
// only then. handled reports whether the free was absorbed by a
// reservation — when false the caller frees the frame through the default
// kernel path (§4.3: frees of fully-mapped groups "[are] performed as in
// the default kernel, without involving PTEMagnet").
func (p *PaRT) NotifyFree(va arch.VirtAddr, pa arch.PhysAddr, release func(arch.PhysAddr)) (handled bool) {
	if p.cfg.CoarseLocking {
		p.coarse.Lock()
		defer p.coarse.Unlock()
	}
	r, ok := p.lookup(va)
	if !ok {
		return false
	}
	idx := p.GroupIndex(va)
	r.mu.Lock()
	if r.dead || r.mask&(1<<idx) == 0 || r.base+arch.PhysAddr(idx<<arch.PageShift) != pa.PageBase() {
		r.mu.Unlock()
		return false
	}
	r.mask &^= 1 << idx
	empty := r.mask == 0
	if empty {
		r.dead = true
	}
	base := r.base
	r.mu.Unlock()
	p.unusedPages.Add(1)
	if empty {
		p.remove(r.groupVA)
		p.live.Add(-1)
		p.unusedPages.Add(-int64(p.cfg.GroupPages))
		for i := 0; i < p.cfg.GroupPages; i++ {
			release(base + arch.PhysAddr(i<<arch.PageShift))
		}
		p.bump(func(s *Stats) { s.FullyFreed++ })
	}
	return true
}

// ClaimFromParent claims the page for va in this (parent) table on behalf of
// a forked child (§4.4: "If the requested page is not allocated by a parent
// (or other children), a page from a parent's reservation is returned to
// the child"). It behaves like the claim half of HandleFault but never
// creates a reservation — children cannot create reservations in the
// parent's map.
func (p *PaRT) ClaimFromParent(va arch.VirtAddr) (pa arch.PhysAddr, ok bool) {
	if p.cfg.CoarseLocking {
		p.coarse.Lock()
		defer p.coarse.Unlock()
	}
	r, found := p.lookup(va)
	if !found {
		return arch.NoPhysAddr, false
	}
	idx := p.GroupIndex(va)
	r.mu.Lock()
	if r.dead || r.mask&(1<<idx) != 0 {
		r.mu.Unlock()
		return arch.NoPhysAddr, false
	}
	pa = p.claim(r, idx)
	p.bump(func(s *Stats) { s.Hits++ })
	return pa, true
}

// ForEach visits every live reservation in unspecified order. The callback
// must not call back into the PaRT. Iteration stops early when fn returns
// false.
func (p *PaRT) ForEach(fn func(*Reservation) bool) {
	p.forEachNode(p.root, radixLevels, fn)
}

func (p *PaRT) forEachNode(n *radixNode, level int, fn func(*Reservation) bool) bool {
	// Snapshot children under the node lock, then recurse without it.
	n.mu.Lock()
	children := n.children
	n.mu.Unlock()
	for _, c := range children {
		if c == nil {
			continue
		}
		if level == 1 {
			if !fn(c.(*Reservation)) {
				return false
			}
			continue
		}
		if !p.forEachNode(c.(*radixNode), level-1, fn) {
			return false
		}
	}
	return true
}

// DissolveGroup destroys the live reservation covering va (if any),
// releasing its unmapped pages through release. Mapped pages stay with
// whoever maps them. The kernel uses this when a reservation page enters a
// state PTEMagnet does not track (swap, THP compaction, or a fork-shared
// frame being freed — §4.4 "Swap and THP").
func (p *PaRT) DissolveGroup(va arch.VirtAddr, release func(arch.PhysAddr)) bool {
	if p.cfg.CoarseLocking {
		p.coarse.Lock()
		defer p.coarse.Unlock()
	}
	r, ok := p.lookup(va)
	if !ok {
		return false
	}
	_, ok = p.destroy(r, release)
	return ok
}

// destroy deletes r, releasing its unmapped pages through release, and
// returns how many it freed; ok is false when r was already dead.
func (p *PaRT) destroy(r *Reservation, release func(arch.PhysAddr)) (freed int, ok bool) {
	r.mu.Lock()
	if r.dead {
		r.mu.Unlock()
		return 0, false
	}
	r.dead = true
	mask := r.mask
	base := r.base
	groupVA := r.groupVA
	r.mu.Unlock()
	for i := 0; i < p.cfg.GroupPages; i++ {
		if mask&(1<<i) == 0 {
			release(base + arch.PhysAddr(i<<arch.PageShift))
			freed++
		}
	}
	p.remove(groupVA)
	p.live.Add(-1)
	p.unusedPages.Add(-int64(freed))
	p.bump(func(s *Stats) { s.Reclaimed++ })
	return freed, true
}

// ReclaimInfo describes one reservation destroyed by Reclaim.
type ReclaimInfo struct {
	// GroupVA is the group's virtual base.
	GroupVA arch.VirtAddr
	// FreedPages is how many unmapped pages were returned to the buddy
	// allocator.
	FreedPages int
}

// Reclaim implements the §4.3 pressure daemon for this process: it walks the
// reservations and destroys them, releasing each *unmapped* page through
// release. Mapped pages stay with the application (it keeps benefitting
// from the contiguity already established). Reclaim stops when enough()
// returns true or the table is empty, and returns what it destroyed.
func (p *PaRT) Reclaim(release func(arch.PhysAddr), enough func() bool) []ReclaimInfo {
	if p.cfg.CoarseLocking {
		p.coarse.Lock()
		defer p.coarse.Unlock()
	}
	var out []ReclaimInfo
	// Collect first: destroying while iterating the radix tree is safe
	// with our snapshots but harder to reason about.
	var victims []*Reservation
	p.ForEach(func(r *Reservation) bool {
		victims = append(victims, r)
		return true
	})
	for _, r := range victims {
		if enough != nil && enough() {
			break
		}
		if freed, ok := p.destroy(r, release); ok {
			out = append(out, ReclaimInfo{GroupVA: r.groupVA, FreedPages: freed})
		}
	}
	return out
}

// DestroyAll tears down every reservation (process exit), releasing all
// unmapped pages through release. Mapped pages are the caller's to free via
// its page-table records.
func (p *PaRT) DestroyAll(release func(arch.PhysAddr)) {
	p.Reclaim(release, nil)
}
