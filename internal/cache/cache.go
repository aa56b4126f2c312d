// Package cache models a CPU cache hierarchy at cache-block granularity.
//
// The model tracks tags only (no data): for the PTEMagnet reproduction the
// question is always *which level of the hierarchy serves an access*, in
// particular whether host page-table entries are served by the caches or by
// main memory (paper §3.3, Tables 1 and 4). Blocks are 64 bytes, sets are
// LRU, and the hierarchy is the classic private-L1/private-L2/shared-LLC
// arrangement of the Xeon the paper evaluates on, scaled down alongside the
// workload footprints. One set-associative type, Sets, stores the tags of
// every level here and the entries of every TLB and walk cache
// (internal/tlb).
package cache

import (
	"fmt"
	"strings"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/obs"
)

// Level identifies where in the memory hierarchy an access was served.
type Level uint8

const (
	// LevelL1 is the private first-level data cache.
	LevelL1 Level = iota
	// LevelL2 is the private second-level cache.
	LevelL2
	// LevelLLC is the shared last-level cache.
	LevelLLC
	// LevelMemory is main memory (a miss in every cache).
	LevelMemory
	// NumLevels is the number of distinct serving levels.
	NumLevels
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMemory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	// SizeBytes is the total capacity. Must be a power-of-two multiple of
	// Ways*CacheBlockSize.
	SizeBytes uint64
	// Ways is the set associativity.
	Ways int
	// Latency is the access latency in cycles when this level serves the
	// access (load-to-use, inclusive of lookups above it).
	Latency uint64
	// HashedIndex selects hashed set indexing (Intel "complex
	// addressing", used by the LLC on the paper's Broadwell parts). It
	// decorrelates set placement from physical page layout, so physical
	// (de)fragmentation changes a block's *footprint*, not its conflict
	// pattern — without it, page-coloring artifacts dwarf the effects
	// under study.
	HashedIndex bool
}

// Config describes a full hierarchy.
type Config struct {
	L1, L2, LLC LevelConfig
	// MemLatency is charged when all levels miss.
	MemLatency uint64
	// NumCPUs is the number of cores, each with private L1 and L2.
	NumCPUs int
}

// DefaultConfig returns a hierarchy shaped like the paper's Broadwell Xeon
// (32KB L1D, 256KB L2, large shared LLC) with the LLC scaled down in
// proportion to the simulator's scaled workload footprints.
func DefaultConfig(numCPUs int) Config {
	return Config{
		L1:         LevelConfig{SizeBytes: 32 << 10, Ways: 8, Latency: 4},
		L2:         LevelConfig{SizeBytes: 256 << 10, Ways: 8, Latency: 12, HashedIndex: true},
		LLC:        LevelConfig{SizeBytes: 2 << 20, Ways: 16, Latency: 42, HashedIndex: true},
		MemLatency: 220,
		NumCPUs:    numCPUs,
	}
}

// invalid is the key of an empty way.
const invalid = ^uint64(0)

// Sets is one set-associative array of uint64 keys with LRU replacement.
// It is the tag store of every cache level here and of every translation
// cache in internal/tlb. It holds keys only: a caller with a payload keeps
// it in a slice indexed by the slots Lookup and Insert return. No key may
// be ^uint64(0), which marks an empty way; block numbers and packed TLB
// keys stay below 2^63.
type Sets struct {
	setMask uint64
	hashed  bool
	ways    int
	// keys[set*ways+way]; invalid marks an empty way.
	keys []uint64
	// stamp[set*ways+way] is the way's last-use tick; larger = more recent.
	stamp []uint64
	tick  uint64
}

// NewSets builds an array of entries keys in ways-way sets; the set count
// must be a power of two. hashed selects hashed set indexing (see
// LevelConfig.HashedIndex); otherwise a key's low bits pick its set.
func NewSets(entries, ways int, hashed bool) *Sets {
	if ways <= 0 || entries <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("cache: %d entries do not divide into %d-way sets", entries, ways))
	}
	sets := uint64(entries / ways)
	if !arch.IsPowerOfTwo(sets) {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", sets))
	}
	s := &Sets{
		setMask: sets - 1,
		hashed:  hashed,
		ways:    ways,
		keys:    make([]uint64, entries),
		stamp:   make([]uint64, entries),
	}
	s.Flush()
	return s
}

// set maps a key to its set index. Hashed arrays fold higher key bits into
// the index (a simple XOR-fold model of Intel complex addressing); plain
// arrays use the low bits directly, as an L1 or a TLB does.
func (s *Sets) set(key uint64) uint64 {
	if s.hashed {
		key ^= key>>10 ^ key>>20 ^ key>>30
		key *= 0x9E3779B97F4A7C15 // Fibonacci hashing spreads the fold
		key >>= 17
	}
	return key & s.setMask
}

// Lookup probes for key and, on a hit, makes it the most recent way of its
// set. It returns key's slot, or -1 on a miss. Every probe advances the
// LRU clock.
func (s *Sets) Lookup(key uint64) int {
	base := int(s.set(key)) * s.ways
	s.tick++
	for i, k := range s.keys[base : base+s.ways] {
		if k == key {
			s.stamp[base+i] = s.tick
			return base + i
		}
	}
	return -1
}

// Insert makes key resident and most recent, and returns its slot. The
// scan stops at the set's first empty way: a copy of key met before it is
// refreshed in place, otherwise key fills that way. Only a full set without
// key evicts, its first least-recent way, and reports the evicted key.
func (s *Sets) Insert(key uint64) (slot int, victim uint64, evicted bool) {
	base := int(s.set(key)) * s.ways
	s.tick++
	keys := s.keys[base : base+s.ways]
	stamp := s.stamp[base : base+len(keys)]
	lru := 0
	for i, k := range keys {
		switch k {
		case key:
			stamp[i] = s.tick
			return base + i, 0, false
		case invalid:
			keys[i], stamp[i] = key, s.tick
			return base + i, 0, false
		}
		if stamp[i] < stamp[lru] {
			lru = i
		}
	}
	victim = keys[lru]
	keys[lru], stamp[lru] = key, s.tick
	return base + lru, victim, true
}

// Invalidate empties the first way of key's set that holds key. Like every
// invalidation it leaves the LRU stamps and clock alone.
func (s *Sets) Invalidate(key uint64) {
	base := int(s.set(key)) * s.ways
	for i, k := range s.keys[base : base+s.ways] {
		if k == key {
			s.keys[base+i] = invalid
			return
		}
	}
}

// InvalidateWhere empties every way whose key satisfies drop.
func (s *Sets) InvalidateWhere(drop func(key uint64) bool) {
	for i, k := range s.keys {
		if k != invalid && drop(k) {
			s.keys[i] = invalid
		}
	}
}

// Flush empties every way.
func (s *Sets) Flush() {
	for i := range s.keys {
		s.keys[i] = invalid
	}
}

// newLevel builds the tag store of one cache level.
func newLevel(cfg LevelConfig) *Sets {
	return NewSets(int(cfg.SizeBytes/arch.CacheBlockSize), cfg.Ways, cfg.HashedIndex)
}

// Hierarchy is a multi-core cache hierarchy: private L1/L2 per CPU and one
// shared LLC.
type Hierarchy struct {
	cfg Config
	l1  []*Sets
	l2  []*Sets
	llc *Sets

	// hits[level] counts accesses served at that level, across all CPUs.
	hits [NumLevels]uint64
}

// NewHierarchy builds the hierarchy described by cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	if cfg.NumCPUs <= 0 {
		panic("cache: need at least one CPU")
	}
	h := &Hierarchy{cfg: cfg, llc: newLevel(cfg.LLC)}
	for i := 0; i < cfg.NumCPUs; i++ {
		h.l1 = append(h.l1, newLevel(cfg.L1))
		h.l2 = append(h.l2, newLevel(cfg.L2))
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Access performs a load of the cache block containing pa on behalf of cpu.
// It returns the level that served the access and the latency charged.
// Misses fill every level on the way back (inclusive fill).
func (h *Hierarchy) Access(cpu int, pa arch.PhysAddr) (Level, uint64) {
	block := pa.CacheBlock()
	switch {
	case h.l1[cpu].Lookup(block) >= 0:
		h.hits[LevelL1]++
		return LevelL1, h.cfg.L1.Latency
	case h.l2[cpu].Lookup(block) >= 0:
		h.l1[cpu].Insert(block)
		h.hits[LevelL2]++
		return LevelL2, h.cfg.L2.Latency
	case h.llc.Lookup(block) >= 0:
		h.l2[cpu].Insert(block)
		h.l1[cpu].Insert(block)
		h.hits[LevelLLC]++
		return LevelLLC, h.cfg.LLC.Latency
	default:
		h.llc.Insert(block)
		h.l2[cpu].Insert(block)
		h.l1[cpu].Insert(block)
		h.hits[LevelMemory]++
		return LevelMemory, h.cfg.MemLatency
	}
}

// Stats holds the hierarchy's counters (DESIGN.md §8).
type Stats struct {
	// Hits[level] counts accesses served at that level, across all CPUs.
	Hits [NumLevels]uint64
}

// Total returns the total number of accesses performed.
func (s Stats) Total() uint64 {
	var n uint64
	for _, c := range s.Hits {
		n += c
	}
	return n
}

// MissRatio returns the fraction of accesses served by main memory.
func (s Stats) MissRatio() float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	return float64(s.Hits[LevelMemory]) / float64(total)
}

// Delta returns the counter-wise difference s - prev.
func (s Stats) Delta(prev Stats) Stats {
	var d Stats
	for i := range s.Hits {
		d.Hits[i] = s.Hits[i] - prev.Hits[i]
	}
	return d
}

// Snapshot returns the counters accumulated since creation.
func (h *Hierarchy) Snapshot() Stats { return Stats{Hits: h.hits} }

// RegisterObs registers the hierarchy's counters on r under prefix, one
// per serving level.
func (h *Hierarchy) RegisterObs(r *obs.Registry, prefix string) {
	for lv := Level(0); lv < NumLevels; lv++ {
		lv := lv
		r.Counter(prefix+"served."+strings.ToLower(lv.String()), func() uint64 {
			return h.hits[lv]
		})
	}
}
