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
		return LevelL1, h.cfg.L1.Latency
	case h.l2[cpu].lookup(block):
		h.l1[cpu].insert(block)
		return LevelL2, h.cfg.L2.Latency
	case h.llc.lookup(block):
		h.l2[cpu].insert(block)
		h.l1[cpu].insert(block)
		return LevelLLC, h.cfg.LLC.Latency
	default:
		h.llc.insert(block)
		h.l2[cpu].insert(block)
		h.l1[cpu].insert(block)
		return LevelMemory, h.cfg.MemLatency
	}
}

// level pairs one level with its reference.
type level struct {
	name string
	s    *Sets
	ref  *refBank
}

// sameState fails unless l holds exactly its reference's tags, LRU stamps
// and clock after op.
func (l level) sameState(t *testing.T, op int) {
	t.Helper()
	if l.s.tick != l.ref.tick {
		t.Fatalf("op %d: %s tick %d, reference %d", op, l.name, l.s.tick, l.ref.tick)
	}
	for i := range l.ref.tags {
		if l.s.keys[i] != l.ref.tags[i] || l.s.stamp[i] != l.ref.age[i] {
			t.Fatalf("op %d: %s slot %d holds %#x@%d, reference %#x@%d",
				op, l.name, i, l.s.keys[i], l.s.stamp[i], l.ref.tags[i], l.ref.age[i])
		}
	}
}

// fuzzConfig is a two-CPU hierarchy small enough that sets fill after a
// few accesses: a plain-indexed L1 and hashed L2 and LLC.
func fuzzConfig() Config {
	return Config{
		L1:         LevelConfig{SizeBytes: 512, Ways: 2, Latency: 4},                         // 4 sets
		L2:         LevelConfig{SizeBytes: 1 << 10, Ways: 4, Latency: 12, HashedIndex: true}, // 4 sets
		LLC:        LevelConfig{SizeBytes: 4 << 10, Ways: 4, Latency: 42, HashedIndex: true}, // 16 sets
		MemLatency: 220,
		NumCPUs:    2,
	}
}

// FuzzSetsMatchReference drives one access stream through the hierarchy
// and through refHierarchy, and one lookup-then-fill stream through a plain
// and a hashed standalone level and their refBanks. Every served level,
// latency and victim must agree, and every level must end each step in the
// reference's exact state. Each input byte pair is one access: the first
// byte's low bit picks the CPU and its next bits the high part of the
// block number (which the hashed index folds in), the second byte the
// low part, from a pool small enough to hit.
func FuzzSetsMatchReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := fuzzConfig()
		h, ref := NewHierarchy(cfg), newRefHierarchy(cfg)
		hier := []level{{"LLC", h.llc, ref.llc}}
		for c := range h.l1 {
			hier = append(hier,
				level{fmt.Sprintf("cpu %d L1", c), h.l1[c], ref.l1[c]},
				level{fmt.Sprintf("cpu %d L2", c), h.l2[c], ref.l2[c]})
		}
		alone := []level{
			{"plain level", newLevel(cfg.L1), newRefBank(cfg.L1)},
			{"hashed level", newLevel(cfg.LLC), newRefBank(cfg.LLC)},
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op := i / 2
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

			for _, l := range alone {
				hit, refHit := l.s.Lookup(block) >= 0, l.ref.lookup(block)
				if hit != refHit {
					t.Fatalf("op %d: %s lookup of %#x hit=%v, reference %v", op, l.name, block, hit, refHit)
				}
				if !hit {
					slot, victim, evicted := l.s.Insert(block)
					refVictim, refEvicted := l.ref.insert(block)
					if victim != refVictim || evicted != refEvicted || l.s.keys[slot] != block {
						t.Fatalf("op %d: %s insert of %#x evicted %#x/%v into slot %d, reference %#x/%v",
							op, l.name, block, victim, evicted, slot, refVictim, refEvicted)
					}
				}
				l.sameState(t, op)
			}
		}
	})
}
