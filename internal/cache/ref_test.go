package cache

import (
	"fmt"
	"testing"

	"ptemagnet/internal/arch"
)

// refBank is a cache level's tag array as it was before Sets replaced it,
// kept as the reference FuzzSetsMatchReference diffs Sets against.
type refBank struct {
	setMask uint64
	hashed  bool
	ways    int
	tags    []uint64
	age     []uint64
	tick    uint64
}

func newRefBank(cfg LevelConfig) *refBank {
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
	b := &refBank{
		setMask: sets - 1,
		hashed:  cfg.HashedIndex,
		ways:    cfg.Ways,
		tags:    make([]uint64, blocks),
		age:     make([]uint64, blocks),
	}
	for i := range b.tags {
		b.tags[i] = invalid
	}
	return b
}

func (b *refBank) set(block uint64) uint64 {
	if b.hashed {
		block ^= block>>10 ^ block>>20 ^ block>>30
		block *= 0x9E3779B97F4A7C15
		block >>= 17
	}
	return block & b.setMask
}

func (b *refBank) lookup(block uint64) bool {
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

func (b *refBank) insert(block uint64) (evicted uint64, wasEvicted bool) {
	set := b.set(block)
	base := int(set) * b.ways
	b.tick++
	victim := base
	for w := 0; w < b.ways; w++ {
		i := base + w
		// bank's callers only inserted missing blocks; a copy met before
		// the first empty way is refreshed, as Sets.Insert does for the
		// TLBs.
		if b.tags[i] == block {
			b.age[i] = b.tick
			return 0, false
		}
		if b.tags[i] == invalid {
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

// invalidate and flush empty ways as Sets.Invalidate and Sets.Flush do:
// the first copy of block, or every way, with the stamps and clock left
// alone.
func (b *refBank) invalidate(block uint64) {
	base := int(b.set(block)) * b.ways
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == block {
			b.tags[base+w] = invalid
			return
		}
	}
}

func (b *refBank) flush() {
	for i := range b.tags {
		b.tags[i] = invalid
	}
}

// refHierarchy is the hierarchy as it was over refBanks: Access probes each
// level in turn and fills every level that missed.
type refHierarchy struct {
	cfg    Config
	l1, l2 []*refBank
	llc    *refBank
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{cfg: cfg, llc: newRefBank(cfg.LLC)}
	for i := 0; i < cfg.NumCPUs; i++ {
		h.l1 = append(h.l1, newRefBank(cfg.L1))
		h.l2 = append(h.l2, newRefBank(cfg.L2))
	}
	return h
}

func (h *refHierarchy) Access(cpu int, pa arch.PhysAddr) (Level, uint64) {
	block := pa.CacheBlock()
	switch {
	case h.l1[cpu].lookup(block):
		return LevelL1, l1Latency
	case h.l2[cpu].lookup(block):
		h.l1[cpu].insert(block)
		return LevelL2, l2Latency
	case h.llc.lookup(block):
		h.l2[cpu].insert(block)
		h.l1[cpu].insert(block)
		return LevelLLC, llcLatency
	default:
		h.llc.insert(block)
		h.l2[cpu].insert(block)
		h.l1[cpu].insert(block)
		return LevelMemory, memLatency
	}
}

// level pairs one level with its reference.
type level struct {
	name string
	s    *Sets
	ref  *refBank
}

// sameState fails unless every slot of l holds its reference's key, every
// way's tag byte is 0 for an empty way and tagOf its key otherwise (the
// bytes past the last way 0), and every set's recency word is a
// permutation of the set's ways that lists its occupied ways in the
// reference's stamp order, most recent first. Stamps of occupied ways are
// distinct (each came from its own tick), and empty ways' stamps are
// stale, so they are not ranked. The fuzz target runs it after every op,
// so it neither allocates nor calls t.Helper.
func (l level) sameState(t *testing.T, op int) {
	ways := l.s.ways
	for set := 0; set <= int(l.s.setMask); set++ {
		for way := 0; way < 8*(l.s.metaWords-1); way++ {
			want := uint64(0)
			if way < ways && l.s.keys[set*ways+way] != invalid {
				want = tagOf(l.s.keys[set*ways+way])
			}
			if got := l.s.tagByte(uint64(set), way); got != want {
				t.Fatalf("op %d: %s set %d way %d has tag byte %#x, want %#x", op, l.name, set, way, got, want)
			}
		}
		word := l.s.meta[set*l.s.metaWords]
		if word>>(4*ways) != 0 {
			t.Fatalf("op %d: %s set %d recency word %#x has nibbles beyond its %d ways", op, l.name, set, word, ways)
		}
		var seen uint32
		newer := ^uint64(0)
		for p := 0; p < ways; p++ {
			way := int(word >> (4 * p) & 0xf)
			if way >= ways || seen&(1<<way) != 0 {
				t.Fatalf("op %d: %s set %d recency word %#x is not a permutation of %d ways", op, l.name, set, word, ways)
			}
			seen |= 1 << way
			i := set*ways + way
			if l.s.keys[i] != l.ref.tags[i] {
				t.Fatalf("op %d: %s slot %d holds %#x, reference %#x", op, l.name, i, l.s.keys[i], l.ref.tags[i])
			}
			if l.ref.tags[i] == invalid {
				continue
			}
			if l.ref.age[i] >= newer {
				t.Fatalf("op %d: %s set %d ranks way %d (stamp %d) behind a way stamped %d in %#x",
					op, l.name, set, way, l.ref.age[i], newer, word)
			}
			newer = l.ref.age[i]
		}
	}
}

// tagByte returns the tag byte of way in set.
func (s *Sets) tagByte(set uint64, way int) uint64 {
	return s.meta[int(set)*s.metaWords+1+way>>3] >> (8 * (way & 7)) & 0xff
}

// fuzzConfig is a two-CPU hierarchy small enough that sets fill after a
// few accesses: a plain-indexed L1 and hashed L2 and LLC.
func fuzzConfig() Config {
	return Config{
		L1:      LevelConfig{SizeBytes: 512, Ways: 2},                        // 4 sets
		L2:      LevelConfig{SizeBytes: 1 << 10, Ways: 4, HashedIndex: true}, // 4 sets
		LLC:     LevelConfig{SizeBytes: 4 << 10, Ways: 4, HashedIndex: true}, // 16 sets
		NumCPUs: 2,
	}
}

// fuzzLevel decodes one byte into a standalone level: 1 to MaxWays ways
// (the low nibble) in 1, 2, 4 or 8 sets.
func fuzzLevel(b byte, hashed bool) LevelConfig {
	ways := 1 + int(b&0xf)
	sets := 1 << (b >> 4 & 3)
	return LevelConfig{SizeBytes: uint64(ways*sets) * arch.CacheBlockSize, Ways: ways, HashedIndex: hashed}
}

// FuzzSetsMatchReference drives one op stream through the hierarchy and
// refHierarchy, and through a plain and a hashed standalone level and
// their refBanks. Every served level, latency, hit and victim must agree,
// and every level must end each op in its reference's state (sameState).
//
// The first two input bytes pick the standalone levels' geometries
// (fuzzLevel); then each byte pair is one op. The first byte's low bit
// picks the CPU, its next two bits the high part of the block number
// (which the hashed index folds in) and its top five bits what the
// standalone levels do; the second byte gives the low part of the block
// number, from a pool small enough to hit. Every op is also one
// hierarchy access.
func FuzzSetsMatchReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		cfg := fuzzConfig()
		h, ref := NewHierarchy(cfg), newRefHierarchy(cfg)
		hier := []level{{"LLC", h.llc, ref.llc}}
		for c := range h.cpus {
			hier = append(hier,
				level{fmt.Sprintf("cpu %d L1", c), &h.cpus[c].l1, ref.l1[c]},
				level{fmt.Sprintf("cpu %d L2", c), &h.cpus[c].l2, ref.l2[c]})
		}
		plain, hashed := fuzzLevel(ops[0], false), fuzzLevel(ops[1], true)
		alone := []level{
			{fmt.Sprintf("plain %d-way level", plain.Ways), newLevel(plain), newRefBank(plain)},
			{fmt.Sprintf("hashed %d-way level", hashed.Ways), newLevel(hashed), newRefBank(hashed)},
		}
		for i := 2; i+1 < len(ops); i += 2 {
			op := i/2 - 1
			cpu := int(ops[i] & 1)
			block := uint64(ops[i+1]&0x3f) | uint64(ops[i]>>1&3)<<10
			pa := arch.PhysAddr(block << arch.CacheBlockShift)
			lv, lat := h.Access(cpu, pa)
			rlv, rlat := ref.Access(cpu, pa)
			if lv != rlv || lat != rlat {
				t.Fatalf("op %d: cpu %d block %#x served by %v/%d, reference %v/%d", op, cpu, block, lv, lat, rlv, rlat)
			}
			for _, l := range hier {
				l.sameState(t, op)
			}

			kind := ops[i] >> 3
			for _, l := range alone {
				switch {
				case kind < 12: // Access
					hit, refHit := l.s.Access(block), l.ref.lookup(block)
					if !refHit {
						l.ref.insert(block)
					}
					if hit != refHit {
						t.Fatalf("op %d: %s access of %#x hit=%v, reference %v", op, l.name, block, hit, refHit)
					}
				case kind < 22: // Lookup, then Insert on a miss
					hit, refHit := l.s.Lookup(block) >= 0, l.ref.lookup(block)
					if hit != refHit {
						t.Fatalf("op %d: %s lookup of %#x hit=%v, reference %v", op, l.name, block, hit, refHit)
					}
					if !hit {
						l.insert(t, op, block)
					}
				case kind < 27: // Insert, resident or not
					l.insert(t, op, block)
				case kind < 31:
					l.s.Invalidate(block)
					l.ref.invalidate(block)
				default:
					l.s.Flush()
					l.ref.flush()
				}
				l.sameState(t, op)
			}
		}
	})
}

// insert inserts block into l and its reference and fails unless both
// evict the same key and l's slot holds block.
func (l level) insert(t *testing.T, op int, block uint64) {
	t.Helper()
	slot, victim, evicted := l.s.Insert(block)
	refVictim, refEvicted := l.ref.insert(block)
	if victim != refVictim || evicted != refEvicted || l.s.keys[slot] != block {
		t.Fatalf("op %d: %s insert of %#x evicted %#x/%v into slot %d, reference %#x/%v",
			op, l.name, block, victim, evicted, slot, refVictim, refEvicted)
	}
}
