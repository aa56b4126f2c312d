package cache

import (
	"testing"

	"ptemagnet/internal/arch"
)

func tinyConfig() Config {
	return Config{
		L1:         LevelConfig{SizeBytes: 1 << 10, Ways: 2, Latency: 4},  // 8 sets
		L2:         LevelConfig{SizeBytes: 4 << 10, Ways: 4, Latency: 12}, // 16 sets
		LLC:        LevelConfig{SizeBytes: 16 << 10, Ways: 4, Latency: 42},
		MemLatency: 220,
		NumCPUs:    2,
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	lv, lat := h.Access(0, 0x1000)
	if lv != LevelMemory || lat != 220 {
		t.Fatalf("cold access served by %v at %d cycles", lv, lat)
	}
	lv, lat = h.Access(0, 0x1000)
	if lv != LevelL1 || lat != 4 {
		t.Fatalf("second access served by %v at %d cycles, want L1/4", lv, lat)
	}
	// Same block, different offset.
	lv, _ = h.Access(0, 0x103F)
	if lv != LevelL1 {
		t.Fatalf("same-block access served by %v, want L1", lv)
	}
	// Next block misses.
	lv, _ = h.Access(0, 0x1040)
	if lv != LevelMemory {
		t.Fatalf("next-block access served by %v, want memory", lv)
	}
}

func TestSharedLLCPrivateL1(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	h.Access(0, 0x2000) // CPU 0 fills all levels
	lv, _ := h.Access(1, 0x2000)
	if lv != LevelLLC {
		t.Fatalf("cross-CPU access served by %v, want LLC (shared)", lv)
	}
	// And now CPU 1 has it in L1 too.
	lv, _ = h.Access(1, 0x2000)
	if lv != LevelL1 {
		t.Fatalf("repeat cross-CPU access served by %v, want L1", lv)
	}
}

func TestLRUEvictionInL1(t *testing.T) {
	cfg := tinyConfig()
	h := NewHierarchy(cfg)
	// L1: 8 sets × 2 ways. Three blocks mapping to the same set: set =
	// block & 7, so blocks 0, 8, 16 (addresses 0, 8*64, 16*64) collide.
	a := arch.PhysAddr(0 * 64)
	b := arch.PhysAddr(8 * 64)
	c := arch.PhysAddr(16 * 64)
	h.Access(0, a)
	h.Access(0, b)
	h.Access(0, a) // refresh a; b becomes LRU
	h.Access(0, c) // evicts b from L1
	if lv, _ := h.Access(0, a); lv != LevelL1 {
		t.Errorf("a served by %v, want L1", lv)
	}
	if lv, _ := h.Access(0, b); lv == LevelL1 {
		t.Errorf("b unexpectedly still in L1")
	}
}

func TestL2BackstopsL1(t *testing.T) {
	cfg := tinyConfig()
	h := NewHierarchy(cfg)
	a := arch.PhysAddr(0)
	b := arch.PhysAddr(8 * 64)
	c := arch.PhysAddr(16 * 64)
	h.Access(0, a)
	h.Access(0, b)
	h.Access(0, c) // a evicted from L1 (LRU), still in L2
	if lv, _ := h.Access(0, a); lv != LevelL2 {
		t.Errorf("evicted-from-L1 block served by %v, want L2", lv)
	}
}

func TestHitCounts(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	h.Access(0, 0x100) // memory
	h.Access(0, 0x100) // L1
	h.Access(1, 0x100) // LLC
	s := h.Snapshot()
	if s.Hits[LevelMemory] != 1 || s.Hits[LevelL1] != 1 || s.Hits[LevelLLC] != 1 {
		t.Errorf("counts = %v", s.Hits)
	}
	if s.Total() != 3 {
		t.Errorf("Total = %d", s.Total())
	}
	if r := s.MissRatio(); r < 0.33 || r > 0.34 {
		t.Errorf("MissRatio = %f", r)
	}
}

func TestMissRatioEmptyHierarchy(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	if h.Snapshot().MissRatio() != 0 {
		t.Error("MissRatio on untouched hierarchy should be 0")
	}
}

func TestWorkingSetFitsInLLC(t *testing.T) {
	cfg := tinyConfig()
	h := NewHierarchy(cfg)
	// Touch a working set that exceeds L1+L2 but fits the 16KB LLC, twice.
	// Second pass must be served entirely above memory.
	blocks := int(cfg.LLC.SizeBytes / arch.CacheBlockSize / 2)
	for pass := 0; pass < 2; pass++ {
		memBefore := h.Snapshot().Hits[LevelMemory]
		for i := 0; i < blocks; i++ {
			h.Access(0, arch.PhysAddr(i*arch.CacheBlockSize))
		}
		memAfter := h.Snapshot().Hits[LevelMemory]
		if pass == 1 && memAfter != memBefore {
			t.Errorf("second pass over LLC-resident set took %d memory accesses", memAfter-memBefore)
		}
	}
}

func TestWorkingSetExceedsLLCThrashes(t *testing.T) {
	cfg := tinyConfig()
	h := NewHierarchy(cfg)
	// A streaming working set 4x the LLC: second pass still misses mostly.
	blocks := int(cfg.LLC.SizeBytes / arch.CacheBlockSize * 4)
	for i := 0; i < blocks; i++ {
		h.Access(0, arch.PhysAddr(i*arch.CacheBlockSize))
	}
	memBefore := h.Snapshot().Hits[LevelMemory]
	for i := 0; i < blocks; i++ {
		h.Access(0, arch.PhysAddr(i*arch.CacheBlockSize))
	}
	misses := h.Snapshot().Hits[LevelMemory] - memBefore
	if misses < uint64(blocks)*9/10 {
		t.Errorf("second pass over 4x-LLC set took only %d/%d memory accesses", misses, blocks)
	}
}

func TestBadConfigsPanic(t *testing.T) {
	cases := []Config{
		{L1: LevelConfig{SizeBytes: 1 << 10, Ways: 0, Latency: 1}, L2: tinyConfig().L2, LLC: tinyConfig().LLC, MemLatency: 1, NumCPUs: 1},
		{L1: LevelConfig{SizeBytes: 100, Ways: 2, Latency: 1}, L2: tinyConfig().L2, LLC: tinyConfig().LLC, MemLatency: 1, NumCPUs: 1},
		{L1: tinyConfig().L1, L2: tinyConfig().L2, LLC: tinyConfig().LLC, MemLatency: 1, NumCPUs: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			NewHierarchy(cfg)
		}()
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig(4)
	h := NewHierarchy(cfg)
	if lv, _ := h.Access(3, 0x1234); lv != LevelMemory {
		t.Errorf("cold access on default config served by %v", lv)
	}
	if cfg.L1.Latency >= cfg.L2.Latency || cfg.L2.Latency >= cfg.LLC.Latency || cfg.LLC.Latency >= cfg.MemLatency {
		t.Error("latencies not monotonically increasing")
	}
}

func TestLevelString(t *testing.T) {
	want := map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelLLC: "LLC", LevelMemory: "memory"}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d.String() = %q", l, l.String())
		}
	}
}

func BenchmarkAccessHit(b *testing.B) {
	h := NewHierarchy(DefaultConfig(1))
	h.Access(0, 0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, 0x1000)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	h := NewHierarchy(DefaultConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, arch.PhysAddr(uint64(i)*arch.CacheBlockSize))
	}
}

func TestHashedIndexingDecorrelatesLayout(t *testing.T) {
	// The property the hashed LLC exists for: a strided physical layout
	// (every 8th block, as page-coloring produces) must spread over many
	// sets instead of hammering a few.
	cfg := LevelConfig{SizeBytes: 64 << 10, Ways: 4, Latency: 1, HashedIndex: true}
	b := newLevel(cfg) // 256 sets
	sets := map[uint64]int{}
	for i := 0; i < 1024; i++ {
		sets[b.set(uint64(i*256))]++ // stride hits set 0 repeatedly un-hashed
	}
	if len(sets) < 128 {
		t.Errorf("strided blocks cover only %d/256 sets with hashing", len(sets))
	}
	// Plain indexing collapses the same stride onto one set.
	plain := newLevel(LevelConfig{SizeBytes: 64 << 10, Ways: 4, Latency: 1})
	plainSets := map[uint64]int{}
	for i := 0; i < 1024; i++ {
		plainSets[plain.set(uint64(i*256))]++
	}
	if len(plainSets) != 1 {
		t.Errorf("plain indexing covers %d sets for a 256-block stride, want 1", len(plainSets))
	}
}

func TestHashedIndexIsDeterministicAndInRange(t *testing.T) {
	b := newLevel(LevelConfig{SizeBytes: 32 << 10, Ways: 8, Latency: 1, HashedIndex: true})
	for i := 0; i < 10_000; i++ {
		s1 := b.set(uint64(i) * 977)
		s2 := b.set(uint64(i) * 977)
		if s1 != s2 {
			t.Fatal("hashed set not deterministic")
		}
		if s1 > b.setMask {
			t.Fatalf("set %d out of range", s1)
		}
	}
}
