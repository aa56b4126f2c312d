// Kvstore shows how to bring your own workload: it implements the
// ptemagnet.Program interface with an in-memory key-value store — the kind
// of "massive, continually expanding in-memory dataset" the paper's
// introduction motivates — and measures how much PTEMagnet buys it when a
// noisy neighbour shares the VM.
//
// The store models a hash-table service: a bucket array (random accesses,
// Zipf-skewed keys), a value heap (pointer chase from bucket to value), and
// an append-only log (sequential writes). GETs dominate, PUTs append.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ptemagnet"
)

// kvstore implements ptemagnet.Program.
type kvstore struct {
	footprint uint64
	ops       uint64
	rng       *rand.Rand
	zipf      *rand.Zipf

	buckets ptemagnet.VirtAddr
	values  ptemagnet.VirtAddr
	logArea ptemagnet.VirtAddr
	bPages  uint64
	vPages  uint64
	lPages  uint64

	init    uint64 // pages touched during load phase
	loaded  bool
	step    uint64
	pending int                 // accesses left in the current operation
	opAddrs [3]ptemagnet.Access // current operation's access sequence
	logPos  uint64
}

func newKVStore(footprint, ops uint64, seed int64) *kvstore {
	rng := rand.New(rand.NewSource(seed))
	return &kvstore{footprint: footprint, ops: ops, rng: rng}
}

func (k *kvstore) Name() string           { return "kvstore" }
func (k *kvstore) FootprintBytes() uint64 { return k.footprint }
func (k *kvstore) InitDone() bool         { return k.loaded }

func (k *kvstore) Setup(env ptemagnet.Env) error {
	var err error
	// 1/8 buckets, 3/4 values, 1/8 log.
	if k.buckets, err = env.Mmap(k.footprint / 8); err != nil {
		return err
	}
	if k.values, err = env.Mmap(k.footprint * 3 / 4); err != nil {
		return err
	}
	if k.logArea, err = env.Mmap(k.footprint / 8); err != nil {
		return err
	}
	k.bPages = k.footprint / 8 / ptemagnet.PageSize
	k.vPages = k.footprint * 3 / 4 / ptemagnet.PageSize
	k.lPages = k.footprint / 8 / ptemagnet.PageSize
	// Zipf-skewed keys: a few hot buckets, a long tail.
	k.zipf = rand.NewZipf(k.rng, 1.2, 8, k.bPages-1)
	return nil
}

func (k *kvstore) Step(env ptemagnet.Env) (ptemagnet.Access, bool) {
	// Load phase: populate every page (bucket array, values, log head).
	total := k.bPages + k.vPages
	if k.init < total {
		var va ptemagnet.VirtAddr
		if k.init < k.bPages {
			va = k.buckets + ptemagnet.VirtAddr(k.init*ptemagnet.PageSize)
		} else {
			va = k.values + ptemagnet.VirtAddr((k.init-k.bPages)*ptemagnet.PageSize)
		}
		k.init++
		if k.init == total {
			k.loaded = true
		}
		return ptemagnet.Access{VA: va, Write: true}, false
	}
	if k.step >= k.ops {
		return ptemagnet.Access{}, true
	}
	if k.pending > 0 {
		k.pending--
		return k.opAddrs[2-k.pending], false
	}
	k.step++
	bucket := k.zipf.Uint64()
	// GET: bucket read, then value read (pseudo-pointer derived from the
	// bucket, spread over the value heap). 1 in 8 ops is a PUT adding a
	// log append.
	k.opAddrs[0] = ptemagnet.Access{VA: k.buckets + ptemagnet.VirtAddr(bucket*ptemagnet.PageSize+uint64(k.rng.Intn(512)*8))}
	vpage := (bucket*2654435761 + k.step) % k.vPages
	k.opAddrs[1] = ptemagnet.Access{VA: k.values + ptemagnet.VirtAddr(vpage*ptemagnet.PageSize+uint64(k.rng.Intn(512)*8))}
	if k.step%8 == 0 {
		k.logPos++
		lpage := (k.logPos / 16) % k.lPages
		k.opAddrs[2] = ptemagnet.Access{VA: k.logArea + ptemagnet.VirtAddr(lpage*ptemagnet.PageSize), Write: true}
		k.pending = 2
	} else {
		k.opAddrs[2] = k.opAddrs[1]
		k.pending = 1
	}
	return k.opAddrs[0], false
}

func run(policy ptemagnet.AllocPolicy) (uint64, float64) {
	cfg := ptemagnet.DefaultMachineConfig()
	cfg.HostMemBytes = 128 << 20
	cfg.GuestMemBytes = 64 << 20
	cfg.Policy = policy
	cfg.Quantum = 2
	cfg.Seed = 21
	cfg.Cache = ptemagnet.DefaultCacheConfig(cfg.NumCPUs)
	cfg.Cache.L2.SizeBytes = 64 << 10
	cfg.Cache.LLC.SizeBytes = 128 << 10
	m, err := ptemagnet.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	store := newKVStore(16<<20, 120_000, 21)
	if _, err := m.AddTask(store, ptemagnet.RolePrimary); err != nil {
		log.Fatal(err)
	}
	noisy := ptemagnet.NewStressNG(ptemagnet.CorunnerConfig{FootprintBytes: 8 << 20, Seed: 22})
	if _, err := m.AddTask(noisy, ptemagnet.RoleCorunner); err != nil {
		log.Fatal(err)
	}
	if err := m.RunWith(context.Background()); err != nil {
		log.Fatal(err)
	}
	rep := m.Report()[0]
	return rep.SteadyCycles, rep.Frag.Mean
}

func main() {
	defCycles, defFrag := run(ptemagnet.PolicyDefault)
	magCycles, magFrag := run(ptemagnet.PolicyPTEMagnet)
	fmt.Println("custom key-value store (Zipf GETs + log appends) vs a stress-ng neighbour")
	fmt.Printf("%-28s  %14s  %14s\n", "", "default kernel", "PTEMagnet")
	fmt.Printf("%-28s  %14d  %14d\n", "steady cycles", defCycles, magCycles)
	fmt.Printf("%-28s  %14.2f  %14.2f\n", "host-PT fragmentation", defFrag, magFrag)
	fmt.Printf("\nPTEMagnet speedup for the store: %+.1f%%\n",
		(float64(defCycles)/float64(magCycles)-1)*100)
}
