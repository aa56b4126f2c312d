package tlb

import (
	"fmt"
	"testing"

	"ptemagnet/internal/arch"
)

// refEntry, refTLB and refTwoLevel are the TLB as it was before it moved
// onto cache.Sets (parallel valid/entries/age arrays with unpacked keys),
// kept as the reference the fuzz targets below diff the package against.
// The per-level lookup and hit counters are left out; nothing compared
// reads them.
type refEntry struct {
	ASID uint32
	VPN  uint64
	PA   arch.PhysAddr
}

type refTLB struct {
	setMask uint64
	ways    int
	valid   []bool
	entries []refEntry
	age     []uint64
	tick    uint64
}

func newRefTLB(cfg Config) *refTLB {
	if cfg.Ways <= 0 || cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: bad config %+v", cfg))
	}
	sets := uint64(cfg.Entries / cfg.Ways)
	if !arch.IsPowerOfTwo(sets) {
		panic(fmt.Sprintf("tlb: set count %d not a power of two", sets))
	}
	return &refTLB{
		setMask: sets - 1,
		ways:    cfg.Ways,
		valid:   make([]bool, cfg.Entries),
		entries: make([]refEntry, cfg.Entries),
		age:     make([]uint64, cfg.Entries),
	}
}

func (t *refTLB) Lookup(asid uint32, vpn uint64) (arch.PhysAddr, bool) {
	t.tick++
	base := int(vpn&t.setMask) * t.ways
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.valid[i] && t.entries[i].VPN == vpn && t.entries[i].ASID == asid {
			t.age[i] = t.tick
			return t.entries[i].PA, true
		}
	}
	return arch.NoPhysAddr, false
}

func (t *refTLB) Insert(asid uint32, vpn uint64, pa arch.PhysAddr) (victim refEntry, evicted bool) {
	t.tick++
	base := int(vpn&t.setMask) * t.ways
	target := base
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.valid[i] && t.entries[i].VPN == vpn && t.entries[i].ASID == asid {
			t.entries[i].PA = pa
			t.age[i] = t.tick
			return refEntry{}, false
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
	t.entries[target] = refEntry{ASID: asid, VPN: vpn, PA: pa}
	t.age[target] = t.tick
	return victim, evicted
}

func (t *refTLB) InvalidatePage(asid uint32, vpn uint64) {
	base := int(vpn&t.setMask) * t.ways
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.valid[i] && t.entries[i].VPN == vpn && t.entries[i].ASID == asid {
			t.valid[i] = false
			return
		}
	}
}

func (t *refTLB) InvalidateRange(asid uint32, first, limit uint64) {
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

func (t *refTLB) InvalidateASID(asid uint32) {
	for i := range t.entries {
		if t.valid[i] && t.entries[i].ASID == asid {
			t.valid[i] = false
		}
	}
}

func (t *refTLB) Flush() {
	for i := range t.valid {
		t.valid[i] = false
	}
}

type refTwoLevel struct {
	l1, l2 *refTLB

	lookups uint64
	l1Hits  uint64
	l2Hits  uint64
}

func (t *refTwoLevel) Lookup(asid uint32, vpn uint64) (arch.PhysAddr, bool) {
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

func (t *refTwoLevel) Insert(asid uint32, vpn uint64, pa arch.PhysAddr) { t.promote(asid, vpn, pa) }

func (t *refTwoLevel) promote(asid uint32, vpn uint64, pa arch.PhysAddr) {
	if victim, evicted := t.l1.Insert(asid, vpn, pa); evicted {
		t.l2.Insert(victim.ASID, victim.VPN, victim.PA)
	}
}

func (t *refTwoLevel) InvalidatePage(asid uint32, vpn uint64) {
	t.l1.InvalidatePage(asid, vpn)
	t.l2.InvalidatePage(asid, vpn)
}

func (t *refTwoLevel) InvalidateRange(asid uint32, first, limit uint64) {
	t.l1.InvalidateRange(asid, first, limit)
	t.l2.InvalidateRange(asid, first, limit)
}

func (t *refTwoLevel) InvalidateASID(asid uint32) {
	t.l1.InvalidateASID(asid)
	t.l2.InvalidateASID(asid)
}

func (t *refTwoLevel) Flush() {
	t.l1.Flush()
	t.l2.Flush()
}

// translations is what the fuzz targets drive: the operations TLB, TwoLevel
// and their references share.
type translations interface {
	Lookup(asid uint32, vpn uint64) (arch.PhysAddr, bool)
	InvalidatePage(asid uint32, vpn uint64)
	InvalidateRange(asid uint32, first, limit uint64)
	InvalidateASID(asid uint32)
	Flush()
}

// fuzzGeometry decodes one byte into a tiny level: 1, 2 or 4 ways in 1, 2
// or 4 sets, so sets fill and invalidations leave holes within a few ops.
func fuzzGeometry(b byte) Config {
	ways := 1 << (b % 3)
	sets := 1 << (b / 3 % 3)
	return Config{Entries: ways * sets, Ways: ways}
}

// fuzzOp is one decoded operation. Each takes three input bytes: the
// first picks the kind, the second the ASID (one of three), whether the
// VPN carries a high bit and a range length, the third the VPN.
type fuzzOp struct {
	kind       byte
	asid       uint32
	vpn, limit uint64
}

// Operation kinds, in the order fuzzOp decodes them.
const (
	opLookup = iota
	opInsert
	opInvalidatePage
	opRangeNarrow
	opRangeWide
	opInvalidateASID
	opFlush
	numOps
)

func decodeOp(b []byte, entries int) fuzzOp {
	op := fuzzOp{kind: b[0] % numOps, asid: 1 + uint32(b[1]%3), vpn: uint64(b[2] % 32)}
	if b[1]&0x80 != 0 {
		op.vpn |= 1 << 40
	}
	n := uint64(b[1] >> 2 & 0xf)
	switch op.kind {
	case opRangeNarrow:
		op.limit = op.vpn + n%uint64(entries)
	case opRangeWide:
		op.vpn &^= 0xf
		op.limit = op.vpn + uint64(entries) + n
	}
	return op
}

// apply runs op on both sides, except inserts, which each target performs
// itself so it can compare victims. It fails on any lookup that disagrees.
func apply(t *testing.T, i int, op fuzzOp, got, want translations) {
	t.Helper()
	switch op.kind {
	case opLookup:
		pa, ok := got.Lookup(op.asid, op.vpn)
		wantPA, wantOK := want.Lookup(op.asid, op.vpn)
		if pa != wantPA || ok != wantOK {
			t.Fatalf("op %d: Lookup(%d, %#x) = %#x,%v, reference %#x,%v", i, op.asid, op.vpn, pa, ok, wantPA, wantOK)
		}
	case opInvalidatePage:
		got.InvalidatePage(op.asid, op.vpn)
		want.InvalidatePage(op.asid, op.vpn)
	case opRangeNarrow, opRangeWide:
		got.InvalidateRange(op.asid, op.vpn, op.limit)
		want.InvalidateRange(op.asid, op.vpn, op.limit)
	case opInvalidateASID:
		got.InvalidateASID(op.asid)
		want.InvalidateASID(op.asid)
	case opFlush:
		got.Flush()
		want.Flush()
	}
}

// sweep probes every key an input can reach and fails on the first that
// disagrees, so state the op stream never looked at is compared too.
func sweep(t *testing.T, got, want translations) {
	t.Helper()
	for asid := uint32(1); asid <= 3; asid++ {
		for _, high := range []uint64{0, 1 << 40} {
			for vpn := high; vpn < high+32; vpn++ {
				pa, ok := got.Lookup(asid, vpn)
				wantPA, wantOK := want.Lookup(asid, vpn)
				if pa != wantPA || ok != wantOK {
					t.Fatalf("final sweep: Lookup(%d, %#x) = %#x,%v, reference %#x,%v", asid, vpn, pa, ok, wantPA, wantOK)
				}
			}
		}
	}
}

// FuzzTLBMatchesReference drives one op stream through a single TLB level
// and refTLB: every lookup and every insert's victim must agree. The first
// input byte picks the geometry, then every three bytes are one op.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := fuzzGeometry(data[0])
		got, want := New(cfg), newRefTLB(cfg)
		for i, b := 0, data[1:]; len(b) >= 3; i, b = i+1, b[3:] {
			op := decodeOp(b, cfg.Entries)
			if op.kind != opInsert {
				apply(t, i, op, got, want)
				continue
			}
			pa := arch.PhysAddr(uint64(i+1) << arch.PageShift)
			victim, victimPA, evicted := got.insert(key(op.asid, op.vpn), pa)
			wantVictim, wantEvicted := want.Insert(op.asid, op.vpn, pa)
			if evicted != wantEvicted || evicted && (victim != key(wantVictim.ASID, wantVictim.VPN) || victimPA != wantVictim.PA) {
				t.Fatalf("op %d: Insert(%d, %#x) evicted %#x (pa %#x) %v, reference %+v %v",
					i, op.asid, op.vpn, victim, victimPA, evicted, wantVictim, wantEvicted)
			}
		}
		sweep(t, got, want)
	})
}

// FuzzTwoLevelMatchesReference drives one op stream through a TwoLevel and
// refTwoLevel: every lookup, and at the end the counters, must agree. The
// first two input bytes pick the L1 and L2 geometries, then every three
// bytes are one op.
func FuzzTwoLevelMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := TwoLevelConfig{L1: fuzzGeometry(data[0]), L2: fuzzGeometry(data[1])}
		got := NewTwoLevel(cfg)
		want := &refTwoLevel{l1: newRefTLB(cfg.L1), l2: newRefTLB(cfg.L2)}
		for i, b := 0, data[2:]; len(b) >= 3; i, b = i+1, b[3:] {
			op := decodeOp(b, cfg.L1.Entries+cfg.L2.Entries)
			if op.kind == opInsert {
				pa := arch.PhysAddr(uint64(i+1) << arch.PageShift)
				got.Insert(op.asid, op.vpn, pa)
				want.Insert(op.asid, op.vpn, pa)
				continue
			}
			apply(t, i, op, got, want)
		}
		sweep(t, got, want)
		wantStats := TwoLevelStats{Lookups: want.lookups, L1Hits: want.l1Hits, L2Hits: want.l2Hits}
		if s := got.Snapshot(); s != wantStats {
			t.Fatalf("counters %+v, reference %+v", s, wantStats)
		}
	})
}
