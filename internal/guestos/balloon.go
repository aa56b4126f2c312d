// Balloon driver: the guest half of host memory overcommit.
//
// The host sets a per-guest balloon target (in pages); the driver brings
// the number of guest frames it holds to that target. Inflation takes
// frames out of the guest's own buddy allocator into the balloon's list
// (BalloonPages counts them), making them unusable by guest processes,
// which tells the host their backing frames can be dropped. Frames come
// from three sources, tried in order of increasing pain, mirroring how a
// real guest kernel reacts to balloon pressure:
//
//  1. free frames straight from the buddy allocator;
//  2. the §4.3 reclaim daemon, run past its watermark gate, breaking
//     PTEMagnet reservations to liberate reserved-but-unmapped pages;
//  3. swapping out mapped pages, chosen by a deterministic FIFO-like
//     cursor over processes in spawn order and ascending virtual
//     address (§4.4: swapping a reserved page dissolves its group).
//
// Deflation pops frames from the tail of the inflation order back into
// the buddy allocator; because the buddy free lists are LIFO, an
// inflate-then-deflate cycle restores them exactly, so post-pressure
// allocation behaviour is identical counter-for-counter to a kernel
// that never ballooned.
package guestos

import (
	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

// BalloonDelta reports the page movements one SetBalloonTarget call
// performed, each slice in event order. Inflated frames are candidates
// for the host to unback; each swapped-out page was shot down by SwapOut.
type BalloonDelta struct {
	// Inflated lists guest-physical frames newly added to the balloon.
	Inflated []arch.PhysAddr
	// Deflated lists guest-physical frames returned to the guest buddy.
	Deflated []arch.PhysAddr
	// SwappedPages counts pages evicted to satisfy inflation.
	SwappedPages uint64
}

// BalloonTarget returns the current host-requested balloon size in pages.
func (k *Kernel) BalloonTarget() uint64 { return k.balloonTarget }

// BalloonPages returns the number of guest frames the balloon holds.
func (k *Kernel) BalloonPages() uint64 { return uint64(len(k.balloonPages)) }

// SetBalloonTarget sets the balloon size to target pages and moves the
// balloon toward it immediately: inflating (free frames, then reservation
// reclaim, then swap-out — see the package comment) or deflating.
// Inflation is best-effort; the returned delta says how far it got. The
// reclaim daemon's pressure check runs after every target update, not
// only on the allocation path: inflation raises used memory past the
// watermark without a single page fault, and the daemon must still fire.
func (k *Kernel) SetBalloonTarget(target uint64) BalloonDelta {
	k.balloonTarget = target
	var delta BalloonDelta
	for uint64(len(k.balloonPages)) < target {
		pa, ok := k.inflateOnePage(&delta)
		if !ok {
			break
		}
		k.balloonPages = append(k.balloonPages, pa)
		delta.Inflated = append(delta.Inflated, pa)
	}
	for uint64(len(k.balloonPages)) > target {
		pa := k.balloonPages[len(k.balloonPages)-1]
		k.balloonPages = k.balloonPages[:len(k.balloonPages)-1]
		k.mem.FreeBlock(pa)
		delta.Deflated = append(delta.Deflated, pa)
	}
	k.checkPressure()
	return delta
}

// balloonReserveFrames is the emergency floor the balloon never eats
// into: page-table node allocations have no reclaim or deflate fallback,
// so a handful of free frames must survive any inflation (enough for a
// full root-to-leaf node chain with slack).
const balloonReserveFrames = 8

// balloonAlloc takes one frame for the balloon, refusing to dip into the
// emergency reserve.
func (k *Kernel) balloonAlloc() (arch.PhysAddr, bool) {
	if k.mem.FreeFrames() <= balloonReserveFrames {
		return arch.NoPhysAddr, false
	}
	return k.mem.AllocFrame(physmem.KindBalloon)
}

// inflateOnePage produces one frame for the balloon, escalating from
// free frames through reservation reclaim to swap-out, and counts the
// pages it swaps out in delta.
func (k *Kernel) inflateOnePage(delta *BalloonDelta) (arch.PhysAddr, bool) {
	pa, ok := k.balloonAlloc()
	if ok {
		return pa, true
	}
	// The daemon run ignores the watermark gate: the goal is a free
	// frame, however little memory is nominally used.
	k.reclaimUntil(func() bool { return k.mem.FreeFrames() > balloonReserveFrames })
	if pa, ok = k.balloonAlloc(); ok {
		return pa, true
	}
	for {
		if !k.swapOutColdPage() {
			return arch.NoPhysAddr, false
		}
		delta.SwappedPages++
		// A swap of a COW-shared frame frees nothing (the sharer keeps
		// it); keep evicting until a frame materialises or nothing is
		// left to evict.
		if pa, ok = k.balloonAlloc(); ok {
			return pa, true
		}
	}
}

// deflateOnOOM is the physmem empty-pool handler (the virtio-balloon
// "deflate on OOM" feature): when any single-frame allocation finds the
// guest pool exhausted, balloon frames are released — newest first, the
// same LIFO order as ordinary deflation — until the free pool clears the
// emergency reserve or the balloon is empty. The target is clamped to
// what the balloon still holds so the next host-side target update does
// not immediately re-inflate what OOM just released. It reports whether
// anything was freed (i.e. whether a retry is worthwhile).
func (k *Kernel) deflateOnOOM(physmem.FrameKind) bool {
	freed := false
	for len(k.balloonPages) > 0 && k.mem.FreeFrames() <= balloonReserveFrames {
		tail := k.balloonPages[len(k.balloonPages)-1]
		k.balloonPages = k.balloonPages[:len(k.balloonPages)-1]
		k.mem.FreeBlock(tail)
		freed = true
	}
	if freed {
		k.balloonTarget = uint64(len(k.balloonPages))
	}
	return freed
}

// swapOutColdPage evicts the next page under the balloon driver's FIFO
// cursor: processes in spawn order, ascending virtual addresses, each
// mapped page visited at most once per call. It reports whether a page
// was evicted; false means no process has an evictable page left.
func (k *Kernel) swapOutColdPage() bool {
	live := k.Processes()
	if len(live) == 0 {
		return false
	}
	if k.swapProc >= len(live) {
		k.swapProc, k.swapVA = 0, 0
	}
	// One extra iteration wraps around to re-scan the cursor process's
	// pages below the cursor address.
	for n := 0; n <= len(live); n++ {
		idx := (k.swapProc + n) % len(live)
		p := live[idx]
		start := arch.VirtAddr(0)
		if n == 0 {
			start = k.swapVA
		}
		end := arch.VirtAddr(^uint64(0))
		if n == len(live) {
			end = k.swapVA
		}
		for {
			va, found := p.nextMappedPage(start)
			if !found || va >= end {
				break
			}
			k.swapProc, k.swapVA = idx, va+arch.PageSize
			if p.SwapOut(va) {
				return true
			}
			start = va + arch.PageSize
		}
	}
	return false
}

// nextMappedPage returns the lowest mapped page at or above start, in
// VMA order (VMAs are sorted by construction: the mmap bump pointer only
// grows).
func (p *Process) nextMappedPage(start arch.VirtAddr) (arch.VirtAddr, bool) {
	for _, region := range p.vmas {
		if region.end <= start {
			continue
		}
		va := region.start
		if start > va {
			va = start.PageBase()
		}
		for ; va < region.end; va += arch.PageSize {
			if _, _, ok := p.pt.Translate(va); ok {
				return va, true
			}
		}
	}
	return 0, false
}
