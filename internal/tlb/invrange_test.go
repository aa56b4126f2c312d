package tlb

import (
	"testing"

	"ptemagnet/internal/arch"
)

// fillPattern inserts a deterministic mix of entries for two ASIDs so that
// invalidation tests exercise occupied sets, ASID isolation and LRU state.
func fillPattern(tl *TLB) {
	for i := uint64(0); i < 24; i++ {
		tl.Insert(1, 100+i*3, 0x5000+arch.PhysAddr(i))
		tl.Insert(2, 100+i*3, 0x9000+arch.PhysAddr(i))
	}
}

// snapshot captures the externally observable translation state: which
// (asid, vpn) pairs still hit.
func snapshot(tl *TLB) map[[2]uint64]bool {
	s := make(map[[2]uint64]bool)
	for asid := uint32(1); asid <= 2; asid++ {
		for vpn := uint64(90); vpn < 190; vpn++ {
			_, ok := tl.Lookup(asid, vpn)
			s[[2]uint64{uint64(asid), vpn}] = ok
		}
	}
	return s
}

func equalSnapshots(t *testing.T, name string, a, b map[[2]uint64]bool) {
	t.Helper()
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: (asid=%d vpn=%d) hit=%v in range path, %v in per-page path",
				name, k[0], k[1], b[k], v)
		}
	}
}

// TestInvalidateRangeMatchesPerPage pins that, while each key is held once
// (fillPattern inserts every key once), InvalidateRange leaves the TLB in
// exactly the state a per-page InvalidatePage sweep would — for both the
// narrow (per-set probe) and wide (full-scan) implementations.
func TestInvalidateRangeMatchesPerPage(t *testing.T) {
	cases := []struct {
		name         string
		first, limit uint64
	}{
		{"empty range", 120, 120},
		{"single page", 121, 122},
		{"narrow", 118, 124},              // < Entries pages → per-page probes
		{"wide", 100, 100 + 24*3},         // ≥ Entries pages → one full scan
		{"straddles unmapped", 90, 1_000}, // mostly absent VPNs
	}
	for _, tc := range cases {
		ranged, paged := New(small()), New(small())
		fillPattern(ranged)
		fillPattern(paged)
		ranged.InvalidateRange(1, tc.first, tc.limit)
		for vpn := tc.first; vpn < tc.limit; vpn++ {
			paged.InvalidatePage(1, vpn)
		}
		equalSnapshots(t, tc.name, snapshot(paged), snapshot(ranged))
	}
}

// TestInvalidateRangeSparesOtherASIDs pins ASID isolation on the wide-scan
// path, where a filter bug would wipe unrelated processes' translations.
func TestInvalidateRangeSparesOtherASIDs(t *testing.T) {
	tl := New(small())
	fillPattern(tl)
	tl.InvalidateRange(1, 0, 1<<40) // wide: everything ASID 1 has
	hits := 0
	for vpn := uint64(90); vpn < 190; vpn++ {
		if _, ok := tl.Lookup(1, vpn); ok {
			t.Fatalf("ASID 1 vpn %d survived a full-range shootdown", vpn)
		}
		if _, ok := tl.Lookup(2, vpn); ok {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("ASID 2 lost all entries to ASID 1's shootdown")
	}
}

// TestTwoLevelInvalidateRange pins that the range shootdown reaches both
// levels, including entries demoted to L2 by later inserts.
func TestTwoLevelInvalidateRange(t *testing.T) {
	tl := NewTwoLevel(TwoLevelConfig{
		L1: Config{Entries: 2, Ways: 2},
		L2: Config{Entries: 8, Ways: 2},
	})
	for i := uint64(0); i < 6; i++ { // overflow L1 so victims land in L2
		tl.Insert(1, 200+i, 0x5000+arch.PhysAddr(i))
	}
	tl.InvalidateRange(1, 200, 206)
	for i := uint64(0); i < 6; i++ {
		if _, ok := tl.Lookup(1, 200+i); ok {
			t.Errorf("vpn %d survived in some level after range shootdown", 200+i)
		}
	}
}
