package guestos

import (
	"math/rand"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
)

// TestRandomOpsInvariants drives the kernel with random operation sequences
// (spawn, mmap, fault, free, fork, COW write, swap-out, exit) under every
// policy and runs checkInvariants every 500 steps.
func TestRandomOpsInvariants(t *testing.T) {
	for _, policy := range []AllocPolicy{PolicyDefault, PolicyPTEMagnet, PolicyCAPaging, PolicyTHP} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			k := NewKernel(Config{MemBytes: 32 << 20, Policy: policy, ReclaimWatermark: 0.8, Seed: 3})

			type procState struct {
				p    *Process
				vmas []arch.VirtAddr
			}
			var procs []*procState
			spawn := func() {
				p, err := k.Spawn("p", 16<<20)
				if err != nil {
					t.Fatal(err)
				}
				procs = append(procs, &procState{p: p})
			}
			spawn()
			spawn()

			for step := 0; step < 4000; step++ {
				ps := procs[rng.Intn(len(procs))]
				switch op := rng.Intn(100); {
				case op < 5: // mmap
					if len(ps.vmas) < 6 {
						va, err := ps.p.Mmap(uint64(1+rng.Intn(64)) * arch.PageSize)
						if err != nil {
							t.Fatal(err)
						}
						ps.vmas = append(ps.vmas, va)
					}
				case op < 70: // fault
					if len(ps.vmas) > 0 {
						va := ps.vmas[rng.Intn(len(ps.vmas))] + arch.VirtAddr(rng.Intn(64))*arch.PageSize
						write := rng.Intn(2) == 0
						if _, err := ps.p.HandlePageFault(va, write); err != nil && err != ErrOutOfMemory {
							if _, vmaErr := ps.p.findVMA(va); vmaErr {
								t.Fatalf("fault: %v", err)
							}
						}
					}
				case op < 85: // free a random small range
					if len(ps.vmas) > 0 {
						va := ps.vmas[rng.Intn(len(ps.vmas))] + arch.VirtAddr(rng.Intn(64))*arch.PageSize
						if err := ps.p.Free(va, uint64(1+rng.Intn(8))*arch.PageSize); err != nil {
							t.Fatalf("free: %v", err)
						}
					}
				case op < 90: // swap out
					if len(ps.vmas) > 0 {
						va := ps.vmas[rng.Intn(len(ps.vmas))] + arch.VirtAddr(rng.Intn(64))*arch.PageSize
						ps.p.SwapOut(va)
					}
				case op < 94: // fork
					if len(procs) < 6 {
						child, err := ps.p.Fork("c")
						if err != nil && err != ErrOutOfMemory {
							t.Fatalf("fork: %v", err)
						}
						if err == nil {
							procs = append(procs, &procState{p: child, vmas: append([]arch.VirtAddr(nil), ps.vmas...)})
						}
					}
				case op < 96: // exit (keep at least one process)
					if len(procs) > 1 {
						idx := rng.Intn(len(procs))
						procs[idx].p.Exit()
						procs = append(procs[:idx], procs[idx+1:]...)
					}
				default: // spawn
					if len(procs) < 6 {
						spawn()
					}
				}
				if step%500 == 0 {
					checkInvariants(t, k, step)
				}
			}
			checkInvariants(t, k, 4000)

			// Everything must be reclaimable: exit all, expect zero usage.
			for _, ps := range procs {
				ps.p.Exit()
			}
			if used := k.Memory().UsedFrames(); used != 0 {
				t.Errorf("%d frames leak after all exits", used)
			}
		})
	}
}

// heldFrames counts the guest frames each owner holds: the frames live
// processes' page tables map (with how many mappings each has), those
// tables' nodes, the PaRTs' reserved-but-unmapped pages, and the balloon's
// frames.
func heldFrames(k *Kernel) (maps map[arch.PhysAddr]int, nodes, reserved, balloon uint64) {
	maps = map[arch.PhysAddr]int{}
	for _, p := range k.Processes() {
		p.PageTable().ForEachMapped(func(_ arch.VirtAddr, pa arch.PhysAddr, _ pagetable.Flags) bool {
			maps[pa.PageBase()]++
			return true
		})
		nodes += uint64(p.PageTable().NodeCount())
	}
	return maps, nodes, uint64(k.UnusedReservedPages()), k.BalloonPages()
}

// checkInvariants checks the kernel's global invariants:
//
//   - frame conservation in the owners' terms: the buddy's used frames are
//     exactly the frames page tables map or are built from, the PaRTs'
//     unused reserved pages and the balloon's (nothing leaks, nothing is
//     double-freed);
//   - no frame has more mappings than its COW share count;
//   - the processes' RSS adds up to the mappings their page tables hold.
func checkInvariants(t *testing.T, k *Kernel, step int) {
	t.Helper()
	maps, nodes, reserved, balloon := heldFrames(k)
	mapped := uint64(len(maps))
	if held, used := mapped+nodes+reserved+balloon, k.Memory().UsedFrames(); held != used {
		t.Fatalf("step %d: owners hold %d frames (mapped %d + pt nodes %d + reserved %d + balloon %d) != used %d",
			step, held, mapped, nodes, reserved, balloon, used)
	}
	var mappings, rss uint64
	for pa, n := range maps {
		if n > 1 && k.frameRefs(pa) < n {
			t.Fatalf("step %d: frame %#x has %d mappings with refcount %d", step, uint64(pa), n, k.frameRefs(pa))
		}
		mappings += uint64(n)
	}
	for _, p := range k.Processes() {
		rss += p.RSS()
	}
	if rss != mappings {
		t.Fatalf("step %d: RSS adds up to %d, page tables hold %d mappings", step, rss, mappings)
	}
}
