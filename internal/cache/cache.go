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
	// Ways is the set associativity, 1 to MaxWays.
	Ways int
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
	// NumCPUs is the number of cores, each with private L1 and L2.
	NumCPUs int
}

// DefaultConfig returns a hierarchy shaped like the paper's Broadwell Xeon
// (32KB L1D, 256KB L2, large shared LLC) with the LLC scaled down in
// proportion to the simulator's scaled workload footprints.
func DefaultConfig(numCPUs int) Config {
	return Config{
		L1:      LevelConfig{SizeBytes: 32 << 10, Ways: 8},
		L2:      LevelConfig{SizeBytes: 256 << 10, Ways: 8, HashedIndex: true},
		LLC:     LevelConfig{SizeBytes: 2 << 20, Ways: 16, HashedIndex: true},
		NumCPUs: numCPUs,
	}
}

// Access latencies in cycles, charged by the level that serves an access
// (load-to-use, inclusive of the lookups above it); memLatency is charged
// when every level misses. Every hierarchy uses these Broadwell-like
// prices; only the geometry varies.
const (
	l1Latency  = 4
	l2Latency  = 12
	llcLatency = 42
	memLatency = 220
)

// invalid is the key of an empty way.
const invalid = ^uint64(0)

// MaxWays is the widest associativity Sets holds: a set's recency word
// keeps one 4-bit way index per way in one uint64.
const MaxWays = 16

// GeometryError reports a geometry Sets cannot hold: the field at fault
// (Entries, Ways or SizeBytes), its value and the rule it breaks.
type GeometryError struct {
	Field  string
	Value  any
	Reason string
}

// Error renders the violation.
func (e *GeometryError) Error() string {
	return fmt.Sprintf("cache: %s = %v (%s)", e.Field, e.Value, e.Reason)
}

// CheckGeometry returns a *GeometryError unless entries keys divide into
// ways-way sets: entries positive, ways in [1, MaxWays], entries a multiple
// of ways and a power-of-two set count. NewSets panics with it.
func CheckGeometry(entries, ways int) error {
	return checkGeometry("Entries", entries, entries, ways)
}

// Check is CheckGeometry for a cache level, which also needs SizeBytes to
// be a multiple of the block size. A failure about the block count names
// SizeBytes.
func (c LevelConfig) Check() error {
	if c.SizeBytes%arch.CacheBlockSize != 0 {
		return &GeometryError{"SizeBytes", c.SizeBytes, fmt.Sprintf("must be a multiple of the %d-byte block", arch.CacheBlockSize)}
	}
	return checkGeometry("SizeBytes", c.SizeBytes, int(c.SizeBytes/arch.CacheBlockSize), c.Ways)
}

// checkGeometry is the geometry rule; a failure about the entry count
// names field and value.
func checkGeometry(field string, value any, entries, ways int) error {
	switch {
	case entries <= 0:
		return &GeometryError{field, value, "must be positive"}
	case ways <= 0 || ways > MaxWays:
		return &GeometryError{"Ways", ways, fmt.Sprintf("must be in [1, %d]", MaxWays)}
	case entries%ways != 0:
		return &GeometryError{field, value, fmt.Sprintf("must fill whole %d-way sets", ways)}
	case !arch.IsPowerOfTwo(uint64(entries / ways)):
		return &GeometryError{field, value, fmt.Sprintf("gives %d sets, not a power of two", entries/ways)}
	}
	return nil
}

// nibbles has a 1 in every 4-bit nibble of a recency word.
const nibbles = 0x1111111111111111

// Sets is one set-associative array of uint64 keys with LRU replacement.
// It is the tag store of every cache level here and of every translation
// cache in internal/tlb. It holds keys only: a caller with a payload keeps
// it in a slice indexed by the slots Lookup and Insert return. No key may
// be ^uint64(0), which marks an empty way; block numbers and packed TLB
// keys stay below 2^63.
//
// Keys never move between ways. Each set's recency word orders its ways
// instead: a hit or a fill moves the way to the front, and a full set
// evicts the way at the back. Invalidation and Flush leave the word alone,
// empty ways refill in way order, and a set evicts only once every way has
// been filled, so the word ranks a full set's ways by their last use.
type Sets struct {
	setMask uint64
	hashed  bool
	ways    int
	// keys[set*ways+way]; invalid marks an empty way.
	keys []uint64
	// recency[set] holds the set's way indices, most recent first, one
	// per 4-bit nibble from the low end; its last used nibble is the LRU
	// way.
	recency []uint64
}

// NewSets builds an array of entries keys in ways-way sets; it panics
// with CheckGeometry's error on a geometry it rejects. hashed selects
// hashed set indexing (see LevelConfig.HashedIndex); otherwise a key's low
// bits pick its set.
func NewSets(entries, ways int, hashed bool) *Sets {
	if err := CheckGeometry(entries, ways); err != nil {
		panic(err)
	}
	sets := entries / ways
	s := &Sets{
		setMask: uint64(sets) - 1,
		hashed:  hashed,
		ways:    ways,
		keys:    make([]uint64, entries),
		recency: make([]uint64, sets),
	}
	// Way w starts at position w; the order of never-used ways is moot.
	for i := range s.recency {
		s.recency[i] = 0xFEDCBA9876543210 & s.wordMask()
	}
	s.Flush()
	return s
}

// wordMask selects the nibbles of a recency word that hold ways.
func (s *Sets) wordMask() uint64 { return ^uint64(0) >> (4 * (MaxWays - s.ways)) }

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
// set. It returns key's slot, or -1 on a miss.
func (s *Sets) Lookup(key uint64) int {
	set := s.set(key)
	base := int(set) * s.ways
	for i, k := range s.keys[base : base+s.ways] {
		if k == key {
			s.use(set, i)
			return base + i
		}
	}
	return -1
}

// Access is Lookup and, on a miss, Insert, in one scan of key's set: it
// reports whether key was resident, and leaves it resident and most
// recent.
func (s *Sets) Access(key uint64) bool {
	set := s.set(key)
	base := int(set) * s.ways
	free := -1
	for i, k := range s.keys[base : base+s.ways] {
		if k == key {
			s.use(set, i)
			return true
		}
		if k == invalid && free < 0 {
			free = i
		}
	}
	s.fill(set, free, key)
	return false
}

// Insert makes key resident and most recent, and returns its slot. The
// scan stops at the set's first empty way: a copy of key met before it is
// refreshed in place, otherwise key fills that way. Only a full set without
// key evicts, its least-recent way, and reports the evicted key.
func (s *Sets) Insert(key uint64) (slot int, victim uint64, evicted bool) {
	set := s.set(key)
	base := int(set) * s.ways
	for i, k := range s.keys[base : base+s.ways] {
		switch k {
		case key:
			s.use(set, i)
			return base + i, 0, false
		case invalid:
			return s.fill(set, i, key)
		}
	}
	return s.fill(set, -1, key)
}

// fill puts key in way free of set, or, when free is negative (a full
// set), in its least-recent way, and makes that way the most recent. It
// returns the slot and the key it evicted, if any.
func (s *Sets) fill(set uint64, free int, key uint64) (slot int, victim uint64, evicted bool) {
	base := int(set) * s.ways
	if free >= 0 {
		s.keys[base+free] = key
		s.use(set, free)
		return base + free, 0, false
	}
	w := s.recency[set]
	way := int(w >> (4 * (s.ways - 1)) & 0xf)
	victim, s.keys[base+way] = s.keys[base+way], key
	s.recency[set] = (w<<4 | uint64(way)) & s.wordMask()
	return base + way, victim, true
}

// use moves way to the front of set's recency word; a way already in
// front writes nothing. A branch-free nibble search finds the way's
// position p: nibbles 0..p-1 shift up by one and way takes nibble 0.
func (s *Sets) use(set uint64, way int) {
	w := s.recency[set]
	if w&0xf == uint64(way) {
		return
	}
	x := w ^ uint64(way)*nibbles // zero in way's nibble
	low := (x - nibbles) &^ x & (nibbles << 3)
	low &= -low           // top bit of the first zero nibble
	through := low<<1 - 1 // nibbles 0..p
	s.recency[set] = w&^through | w<<4&through | uint64(way)
}

// Invalidate empties the first way of key's set that holds key. Like every
// invalidation it leaves the recency word alone.
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

// newLevel builds the tag store of one cache level; it panics with Check's
// error on a geometry Check rejects.
func newLevel(cfg LevelConfig) *Sets {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	return NewSets(int(cfg.SizeBytes/arch.CacheBlockSize), cfg.Ways, cfg.HashedIndex)
}

// private is one CPU's private levels.
type private struct{ l1, l2 Sets }

// Hierarchy is a multi-core cache hierarchy: private L1/L2 per CPU and one
// shared LLC.
type Hierarchy struct {
	cfg Config
	// cpus[cpu] holds that CPU's private levels.
	cpus []private
	llc  *Sets

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
		h.cpus = append(h.cpus, private{l1: *newLevel(cfg.L1), l2: *newLevel(cfg.L2)})
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Access performs a load of the cache block containing pa on behalf of cpu.
// It returns the level that served the access and the latency charged.
// Each level probed is one Sets.Access, which fills the level on a miss, so
// a miss fills every level on the way (inclusive fill).
func (h *Hierarchy) Access(cpu int, pa arch.PhysAddr) (Level, uint64) {
	block := pa.CacheBlock()
	p := &h.cpus[cpu]
	switch {
	case p.l1.Access(block):
		h.hits[LevelL1]++
		return LevelL1, l1Latency
	case p.l2.Access(block):
		h.hits[LevelL2]++
		return LevelL2, l2Latency
	case h.llc.Access(block):
		h.hits[LevelLLC]++
		return LevelLLC, llcLatency
	default:
		h.hits[LevelMemory]++
		return LevelMemory, memLatency
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
