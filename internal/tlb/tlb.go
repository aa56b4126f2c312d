// Package tlb models translation-lookaside buffers.
//
// Under virtualization the TLB caches complete guest-virtual to
// host-physical translations, so a TLB hit skips the entire nested page walk
// and a miss triggers the full 2D walk (paper §2.5). Entries are tagged with
// an address-space identifier (ASID) so colocated processes coexist without
// flushes, matching modern x86 PCID behaviour.
//
// The package provides a single set-associative level and a TwoLevel
// combination (L1 DTLB backed by a larger, slower L2 STLB) mirroring the
// structure of the Broadwell parts used in the paper's evaluation.
package tlb

import (
	"fmt"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/obs"
)

// Entry is a cached translation: virtual page number to physical frame
// address of the page base.
type Entry struct {
	ASID uint32
	VPN  uint64
	PA   arch.PhysAddr
}

// Config sizes one TLB level.
type Config struct {
	// Entries is the total entry count; must be a power-of-two multiple
	// of Ways.
	Entries int
	// Ways is the set associativity.
	Ways int
}

// TLB is one set-associative translation cache with LRU replacement.
type TLB struct {
	setMask uint64
	ways    int
	valid   []bool
	entries []Entry
	age     []uint64
	tick    uint64

	lookups uint64
	hits    uint64
}

// New builds a TLB level from cfg.
func New(cfg Config) *TLB {
	if cfg.Ways <= 0 || cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: bad config %+v", cfg))
	}
	sets := uint64(cfg.Entries / cfg.Ways)
	if !arch.IsPowerOfTwo(sets) {
		panic(fmt.Sprintf("tlb: set count %d not a power of two", sets))
	}
	return &TLB{
		setMask: sets - 1,
		ways:    cfg.Ways,
		valid:   make([]bool, cfg.Entries),
		entries: make([]Entry, cfg.Entries),
		age:     make([]uint64, cfg.Entries),
	}
}

// Lookup probes for (asid, vpn) and refreshes LRU on hit.
func (t *TLB) Lookup(asid uint32, vpn uint64) (arch.PhysAddr, bool) {
	t.lookups++
	t.tick++
	base := int(vpn&t.setMask) * t.ways
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.valid[i] && t.entries[i].VPN == vpn && t.entries[i].ASID == asid {
			t.age[i] = t.tick
			t.hits++
			return t.entries[i].PA, true
		}
	}
	return arch.NoPhysAddr, false
}

// Insert fills (asid, vpn) → pa, evicting the LRU way of the set if full.
// The evicted entry is returned so a two-level arrangement can install
// victims in the next level.
func (t *TLB) Insert(asid uint32, vpn uint64, pa arch.PhysAddr) (victim Entry, evicted bool) {
	t.tick++
	base := int(vpn&t.setMask) * t.ways
	target := base
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.valid[i] && t.entries[i].VPN == vpn && t.entries[i].ASID == asid {
			// Refresh an existing entry in place.
			t.entries[i].PA = pa
			t.age[i] = t.tick
			return Entry{}, false
		}
		if !t.valid[i] {
			target = i
			break
		}
		if t.age[i] < t.age[target] {
			target = i
		}
	}
	if t.valid[target] {
		victim, evicted = t.entries[target], true
	}
	t.valid[target] = true
	t.entries[target] = Entry{ASID: asid, VPN: vpn, PA: pa}
	t.age[target] = t.tick
	return victim, evicted
}

// InvalidatePage drops the translation for (asid, vpn) if present.
func (t *TLB) InvalidatePage(asid uint32, vpn uint64) {
	base := int(vpn&t.setMask) * t.ways
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.valid[i] && t.entries[i].VPN == vpn && t.entries[i].ASID == asid {
			t.valid[i] = false
			return
		}
	}
}

// InvalidateRange drops every translation of asid with a VPN in
// [first, limit) — the batched shootdown behind large frees. Only validity
// bits are cleared; LRU ages and the tick counter are untouched, so the
// resulting state is identical to per-page InvalidatePage calls. For
// ranges wider than the TLB itself one scan over the entries replaces the
// per-page set probes.
func (t *TLB) InvalidateRange(asid uint32, first, limit uint64) {
	if limit-first >= uint64(len(t.entries)) {
		for i := range t.entries {
			if t.valid[i] && t.entries[i].ASID == asid && t.entries[i].VPN >= first && t.entries[i].VPN < limit {
				t.valid[i] = false
			}
		}
		return
	}
	for vpn := first; vpn < limit; vpn++ {
		t.InvalidatePage(asid, vpn)
	}
}

// InvalidateASID drops every translation belonging to asid.
func (t *TLB) InvalidateASID(asid uint32) {
	for i := range t.entries {
		if t.valid[i] && t.entries[i].ASID == asid {
			t.valid[i] = false
		}
	}
}

// Flush drops every translation.
func (t *TLB) Flush() {
	for i := range t.valid {
		t.valid[i] = false
	}
}

// Stats holds one level's counters (DESIGN.md §8).
type Stats struct {
	// Lookups counts probes; Hits counts the successful ones.
	Lookups uint64
	Hits    uint64
}

// Delta returns the counter-wise difference s - prev.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{Lookups: s.Lookups - prev.Lookups, Hits: s.Hits - prev.Hits}
}

// Snapshot returns the counters accumulated since creation.
func (t *TLB) Snapshot() Stats { return Stats{Lookups: t.lookups, Hits: t.hits} }

// TwoLevelConfig sizes a two-level TLB.
type TwoLevelConfig struct {
	L1 Config
	L2 Config
}

// DefaultConfig returns a Broadwell-like two-level TLB: 64-entry 4-way L1
// DTLB and a 1024-entry 8-way STLB.
func DefaultConfig() TwoLevelConfig {
	return TwoLevelConfig{
		L1: Config{Entries: 64, Ways: 4},
		L2: Config{Entries: 1024, Ways: 8},
	}
}

// TwoLevel is an L1 DTLB backed by an L2 STLB. L1 victims are installed in
// L2 (exclusive-ish victim behaviour); L2 hits are promoted back to L1.
type TwoLevel struct {
	l1, l2 *TLB

	lookups uint64
	l1Hits  uint64
	l2Hits  uint64
}

// NewTwoLevel builds the two-level arrangement.
func NewTwoLevel(cfg TwoLevelConfig) *TwoLevel {
	return &TwoLevel{l1: New(cfg.L1), l2: New(cfg.L2)}
}

// Lookup probes L1 then L2, promoting an L2 hit into L1.
func (t *TwoLevel) Lookup(asid uint32, vpn uint64) (arch.PhysAddr, bool) {
	t.lookups++
	if pa, ok := t.l1.Lookup(asid, vpn); ok {
		t.l1Hits++
		return pa, true
	}
	if pa, ok := t.l2.Lookup(asid, vpn); ok {
		t.l2Hits++
		t.promote(asid, vpn, pa)
		return pa, true
	}
	return arch.NoPhysAddr, false
}

// Insert installs a freshly walked translation into L1, pushing any L1
// victim down into L2.
func (t *TwoLevel) Insert(asid uint32, vpn uint64, pa arch.PhysAddr) {
	t.promote(asid, vpn, pa)
}

func (t *TwoLevel) promote(asid uint32, vpn uint64, pa arch.PhysAddr) {
	if victim, evicted := t.l1.Insert(asid, vpn, pa); evicted {
		t.l2.Insert(victim.ASID, victim.VPN, victim.PA)
	}
}

// InvalidatePage drops (asid, vpn) from both levels.
func (t *TwoLevel) InvalidatePage(asid uint32, vpn uint64) {
	t.l1.InvalidatePage(asid, vpn)
	t.l2.InvalidatePage(asid, vpn)
}

// InvalidateRange drops every translation of asid with a VPN in
// [first, limit) from both levels.
func (t *TwoLevel) InvalidateRange(asid uint32, first, limit uint64) {
	t.l1.InvalidateRange(asid, first, limit)
	t.l2.InvalidateRange(asid, first, limit)
}

// InvalidateASID drops all translations of asid from both levels.
func (t *TwoLevel) InvalidateASID(asid uint32) {
	t.l1.InvalidateASID(asid)
	t.l2.InvalidateASID(asid)
}

// Flush empties both levels.
func (t *TwoLevel) Flush() {
	t.l1.Flush()
	t.l2.Flush()
}

// TwoLevelStats holds the combined counters of a two-level TLB
// (DESIGN.md §8).
type TwoLevelStats struct {
	// Lookups counts top-level probes; L1Hits/L2Hits the level that served
	// each hit.
	Lookups uint64
	L1Hits  uint64
	L2Hits  uint64
}

// Misses returns the number of probes that missed both levels — each miss
// costs a full nested page walk.
func (s TwoLevelStats) Misses() uint64 { return s.Lookups - s.L1Hits - s.L2Hits }

// MissRatio returns Misses/Lookups, or 0 before any lookup.
func (s TwoLevelStats) MissRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Lookups)
}

// Delta returns the counter-wise difference s - prev.
func (s TwoLevelStats) Delta(prev TwoLevelStats) TwoLevelStats {
	return TwoLevelStats{
		Lookups: s.Lookups - prev.Lookups,
		L1Hits:  s.L1Hits - prev.L1Hits,
		L2Hits:  s.L2Hits - prev.L2Hits,
	}
}

// Snapshot returns the counters accumulated since creation.
func (t *TwoLevel) Snapshot() TwoLevelStats {
	return TwoLevelStats{Lookups: t.lookups, L1Hits: t.l1Hits, L2Hits: t.l2Hits}
}

// RegisterObs registers the two-level TLB's counters on r under prefix.
func (t *TwoLevel) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"lookups", func() uint64 { return t.lookups })
	r.Counter(prefix+"l1_hits", func() uint64 { return t.l1Hits })
	r.Counter(prefix+"l2_hits", func() uint64 { return t.l2Hits })
}
