// Package cache models a CPU cache hierarchy at cache-block granularity.
//
// The model tracks tags only (no data): for the PTEMagnet reproduction the
// question is always *which level of the hierarchy serves an access*, in
// particular whether host page-table entries are served by the caches or by
// main memory (paper §3.3, Tables 1 and 4). Blocks are 64 bytes, sets are
// LRU, and the hierarchy is the classic private-L1/private-L2/shared-LLC
// arrangement of the Xeon the paper evaluates on, scaled down alongside the
// workload footprints.
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

// bank is one set-associative tag array.
type bank struct {
	setMask uint64
	hashed  bool
	ways    int
	// tags[set*ways+way]; tagValid uses tag==invalidTag sentinel.
	tags []uint64
	// age[set*ways+way] holds a per-set LRU stamp; larger = more recent.
	age  []uint64
	tick uint64
}

const invalidTag = ^uint64(0)

// set maps a block number to its set index. Hashed banks fold higher
// address bits into the index (a simple XOR-fold model of Intel complex
// addressing); plain banks use the low bits directly, as an L1 does.
func (b *bank) set(block uint64) uint64 {
	if b.hashed {
		block ^= block>>10 ^ block>>20 ^ block>>30
		block *= 0x9E3779B97F4A7C15 // Fibonacci hashing spreads the fold
		block >>= 17
	}
	return block & b.setMask
}

func newBank(cfg LevelConfig) *bank {
	if cfg.Ways <= 0 {
		panic("cache: non-positive associativity")
	}
	blocks := cfg.SizeBytes / arch.CacheBlockSize
	if blocks == 0 || blocks%uint64(cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible into %d ways of blocks", cfg.SizeBytes, cfg.Ways))
	}
	sets := blocks / uint64(cfg.Ways)
	if !arch.IsPowerOfTwo(sets) {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", sets))
	}
	b := &bank{
		setMask: sets - 1,
		hashed:  cfg.HashedIndex,
		ways:    cfg.Ways,
		tags:    make([]uint64, blocks),
		age:     make([]uint64, blocks),
	}
	for i := range b.tags {
		b.tags[i] = invalidTag
	}
	return b
}

// lookup probes for block and refreshes LRU on hit.
func (b *bank) lookup(block uint64) bool {
	set := b.set(block)
	base := int(set) * b.ways
	b.tick++
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == block {
			b.age[base+w] = b.tick
			return true
		}
	}
	return false
}

// insert fills block, evicting the LRU way if needed. It returns the evicted
// block and whether an eviction happened.
func (b *bank) insert(block uint64) (evicted uint64, wasEvicted bool) {
	set := b.set(block)
	base := int(set) * b.ways
	b.tick++
	victim := base
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.tags[i] == invalidTag {
			b.tags[i] = block
			b.age[i] = b.tick
			return 0, false
		}
		if b.age[i] < b.age[victim] {
			victim = i
		}
	}
	ev := b.tags[victim]
	b.tags[victim] = block
	b.age[victim] = b.tick
	return ev, true
}

// Hierarchy is a multi-core cache hierarchy: private L1/L2 per CPU and one
// shared LLC.
type Hierarchy struct {
	cfg Config
	l1  []*bank
	l2  []*bank
	llc *bank

	// hits[level] counts accesses served at that level, across all CPUs.
	hits [NumLevels]uint64
}

// NewHierarchy builds the hierarchy described by cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	if cfg.NumCPUs <= 0 {
		panic("cache: need at least one CPU")
	}
	h := &Hierarchy{cfg: cfg, llc: newBank(cfg.LLC)}
	for i := 0; i < cfg.NumCPUs; i++ {
		h.l1 = append(h.l1, newBank(cfg.L1))
		h.l2 = append(h.l2, newBank(cfg.L2))
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
	case h.l1[cpu].lookup(block):
		h.hits[LevelL1]++
		return LevelL1, h.cfg.L1.Latency
	case h.l2[cpu].lookup(block):
		h.l1[cpu].insert(block)
		h.hits[LevelL2]++
		return LevelL2, h.cfg.L2.Latency
	case h.llc.lookup(block):
		h.l2[cpu].insert(block)
		h.l1[cpu].insert(block)
		h.hits[LevelLLC]++
		return LevelLLC, h.cfg.LLC.Latency
	default:
		h.llc.insert(block)
		h.l2[cpu].insert(block)
		h.l1[cpu].insert(block)
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
