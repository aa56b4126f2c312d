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
	"math/bits"
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
// keeps one 4-bit way index per way in one uint64, and its tag bytes fill
// at most two tag words.
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

// Word constants of the SWAR (SIMD within a register) probes: nibbles has
// a 1 in every 4-bit nibble of a recency word, lowBytes a 1 in every byte
// of a tag word, highBits the top bit of every byte and lowBits the other
// seven.
const (
	nibbles  = 0x1111111111111111
	lowBytes = 0x0101010101010101
	highBits = 0x8080808080808080
	lowBits  = 0x7F7F7F7F7F7F7F7F
)

// tagOf returns key's tag byte: 0x80 | the top seven bits of a
// multiplicative hash of the whole key. The keys of a plain-indexed set
// share their low bits, so the hash must fold in every bit. An empty way's
// tag byte is 0.
func tagOf(key uint64) uint64 { return 0x80 | key*0x9E3779B97F4A7C15>>57 }

// matches returns a word with 0x80 in every byte of the tag word tags that
// equals tag, and 0 in every other byte. The test is exact: no carry
// crosses a byte.
func matches(tags, tag uint64) uint64 {
	x := tags ^ tag*lowBytes // zero in the bytes that equal tag
	return ^(x&lowBits + lowBits | x) & highBits
}

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
//
// Each way also has a tag byte (tagOf its key, 0 when empty). A probe
// compares key against the ways whose tag byte is key's, in way order, so
// a fingerprint never decides a hit, and the first empty way is the lowest
// zero tag byte.
type Sets struct {
	setMask uint64
	hashed  bool
	ways    int
	// keys[set*ways+way]; invalid marks an empty way.
	keys []uint64
	// meta holds one metadata block of metaWords words per set. The
	// first is the recency word: the set's way indices, most recent
	// first, one per 4-bit nibble from the low end, so its last used
	// nibble is the LRU way. Tag word t follows it, with the tag bytes
	// of ways 8t to 8t+7 from the low end; the bytes past the last way
	// stay 0.
	meta      []uint64
	metaWords int
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
	metaWords := 1 + (ways+7)/8
	s := &Sets{
		setMask:   uint64(sets) - 1,
		hashed:    hashed,
		ways:      ways,
		keys:      make([]uint64, entries),
		meta:      make([]uint64, sets*metaWords),
		metaWords: metaWords,
	}
	// Way w starts at position w; the order of never-used ways is moot.
	for b := 0; b < len(s.meta); b += metaWords {
		s.meta[b] = 0xFEDCBA9876543210 & (^uint64(0) >> (4 * (MaxWays - ways)))
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

// firstEmpty returns the first empty way of the set with tag words tags,
// the lowest zero tag byte, or -1 when the set is full. The bytes past the
// last way are zero too, so one found there means a full set.
func (s *Sets) firstEmpty(tags []uint64) int {
	for i, w := range tags {
		if e := ^w & highBits; e != 0 {
			if way := i<<3 | bits.TrailingZeros64(e)>>3; way < s.ways {
				return way
			}
			return -1
		}
	}
	return -1
}

// Lookup probes for key and, on a hit, makes it the most recent way of its
// set. It returns key's slot, or -1 on a miss.
func (s *Sets) Lookup(key uint64) int {
	set := s.set(key)
	keys, meta := s.keys, s.meta
	base, b := int(set)*s.ways, int(set)*s.metaWords
	tag := tagOf(key)
	for i, w := range meta[b+1 : b+s.metaWords] {
		for c := matches(w, tag); c != 0; c &= c - 1 {
			if way := i<<3 | bits.TrailingZeros64(c)>>3; keys[base+way] == key {
				use(&meta[b], way)
				return base + way
			}
		}
	}
	return -1
}

// Access is Lookup and, on a miss, Insert, in one probe of key's set: it
// reports whether key was resident, and leaves it resident and most
// recent.
func (s *Sets) Access(key uint64) bool {
	set := s.set(key)
	keys, meta := s.keys, s.meta
	base, b := int(set)*s.ways, int(set)*s.metaWords
	tag := tagOf(key)
	tags := meta[b+1 : b+s.metaWords]
	for i, w := range tags {
		for c := matches(w, tag); c != 0; c &= c - 1 {
			if way := i<<3 | bits.TrailingZeros64(c)>>3; keys[base+way] == key {
				use(&meta[b], way)
				return true
			}
		}
	}
	// A miss fills the first empty way, or evicts the least-recent one.
	way := s.firstEmpty(tags)
	if way < 0 {
		way = s.lru(meta[b])
	}
	use(&meta[b], way)
	keys[base+way] = key
	setTag(&meta[b+1+way>>3], way, tag)
	return false
}

// Insert makes key resident and most recent, and returns its slot. The
// probe stops at the set's first empty way: a copy of key before it is
// refreshed in place, otherwise key fills that way. Only a full set without
// key evicts, its least-recent way, and reports the evicted key.
func (s *Sets) Insert(key uint64) (slot int, victim uint64, evicted bool) {
	set := s.set(key)
	keys, meta := s.keys, s.meta
	base, b := int(set)*s.ways, int(set)*s.metaWords
	tag := tagOf(key)
	free := -1 // the first empty way; -1 while the set looks full
	for i, w := range meta[b+1 : b+s.metaWords] {
		e := ^w & highBits
		// e&-e - 1 keeps the bytes below the first empty one (all of
		// them when e is 0).
		for c := matches(w, tag) & (e&-e - 1); c != 0; c &= c - 1 {
			if way := i<<3 | bits.TrailingZeros64(c)>>3; keys[base+way] == key {
				use(&meta[b], way)
				return base + way, 0, false
			}
		}
		if e != 0 {
			if way := i<<3 | bits.TrailingZeros64(e)>>3; way < s.ways {
				free = way
			}
			break
		}
	}
	way := free
	if way < 0 {
		way = s.lru(meta[b])
		victim, evicted = keys[base+way], true
	}
	use(&meta[b], way)
	keys[base+way] = key
	setTag(&meta[b+1+way>>3], way, tag)
	return base + way, victim, evicted
}

// lru returns the least-recent way of a set with recency word w: its last
// way.
func (s *Sets) lru(w uint64) int { return int(w >> (4 * uint(s.ways-1)) & 0xf) }

// setTag makes tag the tag byte of way in w, the tag word that holds it.
func setTag(w *uint64, way int, tag uint64) {
	shift := 8 * uint(way&7)
	*w = *w&^(0xff<<shift) | tag<<shift
}

// use moves way to the front of the recency word *r. A branch-free nibble
// search finds the way's position p: nibbles 0..p-1 shift up by one and
// way takes nibble 0. For the least-recent way (the last nibble) that is
// an eviction's shift. For the front way (p = 0) it stores the word back
// unchanged: a test for the front way would be a branch that a stream of
// hits mispredicts.
func use(r *uint64, way int) {
	w := *r
	x := w ^ uint64(way)*nibbles // zero in way's nibble
	low := (x - nibbles) &^ x & (nibbles << 3)
	low &= -low           // top bit of the first zero nibble
	through := low<<1 - 1 // nibbles 0..p
	*r = w&^through | w<<4&through | uint64(way)
}

// Invalidate empties the first way of key's set that holds key. Like every
// invalidation it leaves the recency word alone.
func (s *Sets) Invalidate(key uint64) {
	set := s.set(key)
	keys, meta := s.keys, s.meta
	base, b := int(set)*s.ways, int(set)*s.metaWords
	tag := tagOf(key)
	for i, w := range meta[b+1 : b+s.metaWords] {
		for c := matches(w, tag); c != 0; c &= c - 1 {
			if way := i<<3 | bits.TrailingZeros64(c)>>3; keys[base+way] == key {
				keys[base+way] = invalid
				setTag(&meta[b+1+i], way, 0)
				return
			}
		}
	}
}

// InvalidateWhere empties every way whose key satisfies drop.
func (s *Sets) InvalidateWhere(drop func(key uint64) bool) {
	for i, k := range s.keys {
		if k != invalid && drop(k) {
			s.keys[i] = invalid
			set, way := i/s.ways, i%s.ways
			setTag(&s.meta[set*s.metaWords+1+way>>3], way, 0)
		}
	}
}

// Flush empties every way.
func (s *Sets) Flush() {
	for i := range s.keys {
		s.keys[i] = invalid
	}
	for b := 0; b < len(s.meta); b += s.metaWords {
		clear(s.meta[b+1 : b+s.metaWords])
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
