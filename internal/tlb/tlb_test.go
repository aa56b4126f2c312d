package tlb

import (
	"testing"
	"testing/quick"

	"ptemagnet/internal/arch"
)

func small() Config { return Config{Entries: 8, Ways: 2} } // 4 sets

func TestLookupMissThenHit(t *testing.T) {
	tl := New(small())
	if _, ok := tl.Lookup(1, 100); ok {
		t.Fatal("hit on empty TLB")
	}
	tl.Insert(1, 100, 0x5000)
	pa, ok := tl.Lookup(1, 100)
	if !ok || pa != 0x5000 {
		t.Fatalf("Lookup = %#x,%v", pa, ok)
	}
}

func TestASIDIsolation(t *testing.T) {
	tl := New(small())
	tl.Insert(1, 100, 0x5000)
	if _, ok := tl.Lookup(2, 100); ok {
		t.Error("ASID 2 hit ASID 1's entry")
	}
	tl.Insert(2, 100, 0x6000)
	pa1, _ := tl.Lookup(1, 100)
	pa2, _ := tl.Lookup(2, 100)
	if pa1 != 0x5000 || pa2 != 0x6000 {
		t.Errorf("pa1=%#x pa2=%#x", pa1, pa2)
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	tl := New(small())
	tl.Insert(1, 100, 0x5000)
	if _, _, evicted := tl.insert(key(1, 100), 0x7000); evicted {
		t.Error("re-insert of same key evicted something")
	}
	pa, _ := tl.Lookup(1, 100)
	if pa != 0x7000 {
		t.Errorf("pa = %#x, want updated 0x7000", pa)
	}
}

func TestLRUEviction(t *testing.T) {
	tl := New(small())
	// VPNs 0, 4, 8 map to set 0 (4 sets). 2 ways.
	tl.Insert(1, 0, 0x1000)
	tl.Insert(1, 4, 0x2000)
	tl.Lookup(1, 0) // refresh 0; 4 is LRU
	victim, victimPA, evicted := tl.insert(key(1, 8), 0x3000)
	if !evicted || victim != key(1, 4) || victimPA != 0x2000 {
		t.Fatalf("victim = %#x (pa %#x) evicted=%v, want VPN 4 at 0x2000", victim, victimPA, evicted)
	}
	if _, ok := tl.Lookup(1, 4); ok {
		t.Error("evicted entry still present")
	}
	if _, ok := tl.Lookup(1, 0); !ok {
		t.Error("refreshed entry was evicted")
	}
}

func TestInvalidatePage(t *testing.T) {
	tl := New(small())
	tl.Insert(1, 100, 0x5000)
	tl.Insert(2, 100, 0x6000)
	tl.InvalidatePage(1, 100)
	if _, ok := tl.Lookup(1, 100); ok {
		t.Error("invalidated page still present")
	}
	if _, ok := tl.Lookup(2, 100); !ok {
		t.Error("other ASID's entry wrongly invalidated")
	}
}

func TestInvalidateASIDAndFlush(t *testing.T) {
	tl := New(small())
	for vpn := uint64(0); vpn < 4; vpn++ {
		tl.Insert(1, vpn, arch.PhysAddr(0x1000*vpn+0x1000))
		tl.Insert(2, vpn+8, arch.PhysAddr(0x9000+0x1000*vpn))
	}
	tl.InvalidateASID(1)
	for vpn := uint64(0); vpn < 4; vpn++ {
		if _, ok := tl.Lookup(1, vpn); ok {
			t.Errorf("ASID 1 vpn %d survived InvalidateASID", vpn)
		}
	}
	if _, ok := tl.Lookup(2, 8); !ok {
		t.Error("ASID 2 entry lost")
	}
	tl.Flush()
	if _, ok := tl.Lookup(2, 8); ok {
		t.Error("entry survived Flush")
	}
}

// TestCounters pins the counters the TLB exports: top-level lookups and
// the level that served each hit.
func TestCounters(t *testing.T) {
	tl := NewTwoLevel(TwoLevelConfig{L1: Config{Entries: 2, Ways: 2}, L2: small()})
	tl.Lookup(1, 1) // miss
	tl.Insert(1, 1, 0x1000)
	tl.Lookup(1, 1) // L1 hit
	tl.Insert(1, 2, 0x2000)
	tl.Insert(1, 3, 0x3000) // L1 is full: vpn 1 moves to L2
	tl.Lookup(1, 1)         // L2 hit
	want := TwoLevelStats{Lookups: 3, L1Hits: 1, L2Hits: 1}
	if s := tl.Snapshot(); s != want {
		t.Errorf("Snapshot = %+v, want %+v", s, want)
	}
	if d := tl.Snapshot().Delta(want); d != (TwoLevelStats{}) {
		t.Errorf("Delta against itself = %+v, want zero", d)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{Entries: 0, Ways: 1}, {Entries: 8, Ways: 0}, {Entries: 9, Ways: 2}, {Entries: 12, Ways: 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestTwoLevelPromotion(t *testing.T) {
	tl := NewTwoLevel(TwoLevelConfig{
		L1: Config{Entries: 4, Ways: 2},
		L2: Config{Entries: 16, Ways: 2},
	})
	tl.Insert(1, 10, 0x5000)
	// Force 10 out of L1: set = vpn&1... L1 has 2 sets. VPNs 10, 12, 14
	// all map to set 0.
	tl.Insert(1, 12, 0x6000)
	tl.Insert(1, 14, 0x7000) // evicts vpn 10 into L2
	pa, ok := tl.Lookup(1, 10)
	if !ok || pa != 0x5000 {
		t.Fatalf("L2 lookup = %#x,%v", pa, ok)
	}
	if tl.l2Hits != 1 {
		t.Errorf("l2Hits = %d, want 1", tl.l2Hits)
	}
	// Promoted back to L1.
	tl.Lookup(1, 10)
	if tl.l1Hits != 1 {
		t.Errorf("l1Hits = %d, want 1 after promotion", tl.l1Hits)
	}
}

func TestTwoLevelMissAccounting(t *testing.T) {
	tl := NewTwoLevel(DefaultConfig())
	for vpn := uint64(0); vpn < 10; vpn++ {
		tl.Lookup(1, vpn)
	}
	if s := tl.Snapshot(); s.Misses() != 10 {
		t.Errorf("Misses = %d, want 10", s.Misses())
	}
	if r := tl.Snapshot().MissRatio(); r != 1.0 {
		t.Errorf("MissRatio = %f", r)
	}
	for vpn := uint64(0); vpn < 10; vpn++ {
		tl.Insert(1, vpn, arch.PhysAddr(0x1000*(vpn+1)))
	}
	for vpn := uint64(0); vpn < 10; vpn++ {
		if _, ok := tl.Lookup(1, vpn); !ok {
			t.Errorf("vpn %d missing after insert", vpn)
		}
	}
	if r := tl.Snapshot().MissRatio(); r != 0.5 {
		t.Errorf("MissRatio = %f, want 0.5", r)
	}
}

func TestTwoLevelInvalidation(t *testing.T) {
	tl := NewTwoLevel(DefaultConfig())
	tl.Insert(1, 5, 0x1000)
	tl.Insert(1, 6, 0x2000)
	tl.InvalidatePage(1, 5)
	if _, ok := tl.Lookup(1, 5); ok {
		t.Error("page survived InvalidatePage")
	}
	tl.InvalidateASID(1)
	if _, ok := tl.Lookup(1, 6); ok {
		t.Error("page survived InvalidateASID")
	}
	tl.Insert(2, 7, 0x3000)
	tl.Flush()
	if _, ok := tl.Lookup(2, 7); ok {
		t.Error("page survived Flush")
	}
}

// Property: after inserting any set of distinct (asid, vpn) pairs that all
// map to distinct sets or fit within associativity, lookups return what was
// inserted most recently for that key.
func TestQuickInsertThenLookup(t *testing.T) {
	f := func(vpns []uint16) bool {
		tl := NewTwoLevel(DefaultConfig())
		last := map[uint64]arch.PhysAddr{}
		for i, v := range vpns {
			if len(last) >= 48 { // stay within total capacity
				break
			}
			pa := arch.PhysAddr((uint64(i) + 1) << arch.PageShift)
			tl.Insert(3, uint64(v), pa)
			last[uint64(v)] = pa
		}
		for vpn, pa := range last {
			got, ok := tl.Lookup(3, vpn)
			if !ok || got != pa {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTwoLevelHit(b *testing.B) {
	tl := NewTwoLevel(DefaultConfig())
	tl.Insert(1, 42, 0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(1, 42)
	}
}

func TestQuickLRUNeverEvictsMostRecent(t *testing.T) {
	// Property: immediately after any operation sequence, the most
	// recently inserted or looked-up entry is always present.
	f := func(ops []uint16) bool {
		tl := New(Config{Entries: 16, Ways: 2})
		var lastKey uint64
		var have bool
		for _, op := range ops {
			vpn := uint64(op % 64)
			if op%3 == 0 {
				tl.Insert(1, vpn, arch.PhysAddr((vpn+1)<<arch.PageShift))
				lastKey, have = vpn, true
			} else if have {
				tl.Lookup(1, lastKey)
			}
			if have {
				if _, ok := tl.Lookup(1, lastKey); !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
