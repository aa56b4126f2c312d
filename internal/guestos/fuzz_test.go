package guestos

import (
	"errors"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
)

// fuzzMaxOps bounds one input's operations so a long input stays fast.
const fuzzMaxOps = 128

// FuzzGuestOps decodes its input into a guest-kernel operation sequence and
// checks checkInvariants after every operation. The first byte picks the
// policy; each following triple (op, x, y) is one operation on the process
// x picks: spawn, mmap, read or write fault, free, swap-out, fork, exit,
// and a balloon target step up or down. x and y also pick the VMA, page and
// length an operation touches. Running out of guest memory is an
// expected outcome; any other error fails.
func FuzzGuestOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		k := NewKernel(Config{
			MemBytes:         4 << 20,
			Policy:           AllocPolicy(in[0] % 4),
			ReclaimWatermark: 0.8,
			Seed:             1,
		})
		var procs []*Process
		// oom reports whether err is the kernel running out of guest
		// memory, for data frames or for page-table nodes.
		oom := func(err error) bool {
			return errors.Is(err, ErrOutOfMemory) || errors.Is(err, pagetable.ErrNoMemory)
		}
		for i, step := 1, 0; i+2 < len(in) && step < fuzzMaxOps; i, step = i+3, step+1 {
			op, x, y := in[i]%10, int(in[i+1]), int(in[i+2])
			if op != 0 && len(procs) == 0 {
				op = 0
			}
			var p *Process
			var page arch.VirtAddr
			if len(procs) > 0 {
				p = procs[x%len(procs)]
				if len(p.vmas) > 0 {
					r := p.vmas[(x/8)%len(p.vmas)]
					pages := int(uint64(r.end-r.start) >> arch.PageShift)
					page = r.start + arch.VirtAddr(y%pages)<<arch.PageShift
				}
			}
			switch op {
			case 0: // spawn
				if len(procs) < 6 {
					np, err := k.Spawn("p", 4<<20)
					if err != nil && !oom(err) {
						t.Fatalf("op %d: spawn: %v", step, err)
					}
					if err == nil {
						procs = append(procs, np)
					}
				}
			case 1: // mmap: a few pages, or a whole 2MB region THP can promote
				if len(p.vmas) < 6 {
					bytes := uint64(y%64+1) * arch.PageSize
					if x&0x80 != 0 {
						bytes = pagetable.LargePageBytes
					}
					if _, err := p.Mmap(bytes); err != nil {
						t.Fatalf("op %d: mmap %d: %v", step, bytes, err)
					}
				}
			case 2, 3: // read or write fault
				if page != 0 {
					if _, err := p.HandlePageFault(page, op == 3); err != nil && !oom(err) {
						t.Fatalf("op %d: fault at %#x: %v", step, uint64(page), err)
					}
				}
			case 4: // free 1-8 pages
				if page != 0 {
					if err := p.Free(page, uint64(x%8+1)*arch.PageSize); err != nil {
						t.Fatalf("op %d: free at %#x: %v", step, uint64(page), err)
					}
				}
			case 5: // swap out
				if page != 0 {
					p.SwapOut(page)
				}
			case 6: // fork
				if len(procs) < 6 {
					child, err := p.Fork("c")
					if err != nil && !oom(err) {
						t.Fatalf("op %d: fork: %v", step, err)
					}
					if err == nil {
						procs = append(procs, child)
					} else if live := k.Processes(); len(live) != len(procs) {
						t.Fatalf("op %d: %d live processes after a failed fork, %d held", step, len(live), len(procs))
					}
				}
			case 7: // exit
				p.Exit()
				procs = append(procs[:x%len(procs)], procs[x%len(procs)+1:]...)
			case 8: // balloon up
				k.SetBalloonTarget(k.BalloonTarget() + uint64(y+1)*4)
			case 9: // balloon down
				k.SetBalloonTarget(k.BalloonTarget() - min(k.BalloonTarget(), uint64(y+1)*4))
			}
			checkInvariants(t, k, step)
		}
		for _, p := range procs {
			p.Exit()
		}
		k.SetBalloonTarget(0)
		if used := k.Memory().UsedFrames(); used != 0 {
			t.Errorf("%d frames leak after every exit and a full deflate", used)
		}
	})
}
