// Package buddy implements a binary buddy page-frame allocator in the style
// of the Linux kernel's zone allocator.
//
// Frames are managed in blocks of 2^order pages, order 0 through MaxOrder.
// Free blocks of each order sit on a per-order free list; allocation splits
// the smallest sufficient block and freeing coalesces with the buddy block
// whenever the buddy is also free.
//
// Two properties matter for the PTEMagnet reproduction:
//
//   - Free lists are LIFO and allocation prefers the lowest adequate order.
//     This is what makes interleaved single-page requests from colocated
//     processes produce physically interleaved — fragmented — layouts, the
//     phenomenon §2.4 and §3 of the paper build on.
//   - Order-3 (eight-page, 32KB) allocations are natural and cheap, which is
//     what PTEMagnet's reservation path relies on.
//
// Every frame costs 9 bytes of metadata: two 4-byte free-list links and one
// state byte. Frame numbers stay uint64 at the API; internally they fit 32
// bits, so an allocator manages at most MaxFrames frames (16 TiB of 4 KB
// pages).
//
// The allocator is not safe for concurrent use; the simulated kernels
// serialize calls the way a per-zone spinlock would.
package buddy

import (
	"fmt"

	"ptemagnet/internal/obs"
)

// MaxOrder is the largest supported block order. 2^11 pages = 8MB, matching
// Linux's default MAX_ORDER-1 = 10..11 range closely enough for simulation.
const MaxOrder = 11

// Stats aggregates allocator activity counters.
type Stats struct {
	// AllocCalls counts successful allocations, by requested order.
	AllocCalls [MaxOrder + 1]uint64
	// FreeCalls counts frees, by order.
	FreeCalls [MaxOrder + 1]uint64
	// Splits counts block splits performed to satisfy allocations.
	Splits uint64
	// Merges counts buddy coalescing events on free.
	Merges uint64
	// Failures counts allocations that failed for lack of memory.
	Failures uint64
}

// Delta returns the counter-wise difference s - prev.
func (s Stats) Delta(prev Stats) Stats {
	var d Stats
	for i := range s.AllocCalls {
		d.AllocCalls[i] = s.AllocCalls[i] - prev.AllocCalls[i]
		d.FreeCalls[i] = s.FreeCalls[i] - prev.FreeCalls[i]
	}
	d.Splits = s.Splits - prev.Splits
	d.Merges = s.Merges - prev.Merges
	d.Failures = s.Failures - prev.Failures
	return d
}

// Allocator is a binary buddy allocator over a contiguous range of physical
// frames [0, nframes).
type Allocator struct {
	nframes uint64
	// freeHead[o] is the frame number at the head of the order-o free
	// list, or noFrame.
	freeHead [MaxOrder + 1]uint32
	// next/prev link free blocks into doubly-linked lists, indexed by the
	// block's first frame.
	next []uint32
	prev []uint32
	// state holds per-frame metadata: for the first frame of a free block,
	// the block's order and the free and head bits; for allocated blocks,
	// the order it was allocated with (needed by Free) and the head bit.
	state []frameState
	free  uint64 // total free frames
	stats Stats
}

// frameState packs one frame's metadata into a byte: the block order in
// the low four bits, then a free bit and a head bit (first frame of a
// tracked free or allocated block). Zero is a frame inside a block.
type frameState uint8

const (
	orderBits frameState = 1<<4 - 1
	freeBit   frameState = 1 << 4
	headBit   frameState = 1 << 5
)

// freeHeadState and allocHeadState are the states of the first frame of a
// free and an allocated block of the given order.
func freeHeadState(order int) frameState  { return frameState(order) | freeBit | headBit }
func allocHeadState(order int) frameState { return frameState(order) | headBit }

func (s frameState) order() int { return int(s & orderBits) }

// allocatedHead reports whether s heads an allocated block.
func (s frameState) allocatedHead() bool { return s&(freeBit|headBit) == headBit }

// noFrame ends a free list. It is one past the largest frame number an
// allocator of MaxFrames frames holds.
const noFrame = ^uint32(0)

// MaxFrames is the most frames one allocator manages: frame numbers and
// free-list links are 32 bits wide, with noFrame as the end marker.
const MaxFrames = uint64(noFrame)

// New creates an allocator managing nframes physical frames. Frame 0 is
// permanently reserved so that physical address 0 can serve as a null
// sentinel, mirroring real kernels keeping low memory out of the allocator.
// nframes must lie in [2, MaxFrames].
func New(nframes uint64) *Allocator {
	if nframes < 2 {
		panic(fmt.Sprintf("buddy: need at least 2 frames, got %d", nframes))
	}
	if nframes > MaxFrames {
		panic(fmt.Sprintf("buddy: %d frames exceed the maximum of %d", nframes, MaxFrames))
	}
	a := &Allocator{
		nframes: nframes,
		next:    make([]uint32, nframes),
		prev:    make([]uint32, nframes),
		state:   make([]frameState, nframes),
	}
	for o := range a.freeHead {
		a.freeHead[o] = noFrame
	}
	// Seed the free lists with maximal aligned blocks covering
	// [1, nframes). Frame 0 stays reserved.
	frame := uint64(1)
	for frame < nframes {
		o := maxOrderAt(frame, nframes)
		a.pushFree(frame, o)
		a.free += uint64(1) << o
		frame += uint64(1) << o
	}
	return a
}

// maxOrderAt returns the largest order usable for a free block starting at
// frame without exceeding limit or violating buddy alignment.
func maxOrderAt(frame, limit uint64) int {
	o := MaxOrder
	for o > 0 {
		size := uint64(1) << o
		if frame%size == 0 && frame+size <= limit {
			break
		}
		o--
	}
	return o
}

// NumFrames returns the total number of managed frames, including the
// reserved frame 0.
func (a *Allocator) NumFrames() uint64 { return a.nframes }

// FreeFrames returns the number of currently free frames.
func (a *Allocator) FreeFrames() uint64 { return a.free }

// UsedFrames returns the number of allocated frames (excluding the reserved
// frame 0).
func (a *Allocator) UsedFrames() uint64 { return a.nframes - 1 - a.free }

// Snapshot returns a copy of the activity counters.
func (a *Allocator) Snapshot() Stats { return a.stats }

// RegisterObs registers the allocator's counters on r under prefix:
// per-order alloc/free histograms plus the split/merge/failure totals.
func (a *Allocator) RegisterObs(r *obs.Registry, prefix string) {
	r.Histogram(prefix+"alloc_calls", MaxOrder+1, func(o int) uint64 { return a.stats.AllocCalls[o] })
	r.Histogram(prefix+"free_calls", MaxOrder+1, func(o int) uint64 { return a.stats.FreeCalls[o] })
	r.Counter(prefix+"splits", func() uint64 { return a.stats.Splits })
	r.Counter(prefix+"merges", func() uint64 { return a.stats.Merges })
	r.Counter(prefix+"failures", func() uint64 { return a.stats.Failures })
}

// AllocOrder allocates a 2^order-page block and returns its first frame
// number. It returns ok=false if no block of sufficient order is free.
func (a *Allocator) AllocOrder(order int) (frame uint64, ok bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: bad order %d", order))
	}
	o := order
	for o <= MaxOrder && a.freeHead[o] == noFrame {
		o++
	}
	if o > MaxOrder {
		a.stats.Failures++
		return 0, false
	}
	frame = a.popFree(o)
	// Split down to the requested order, returning the upper halves to
	// their free lists (lower half is retained — Linux does the same, so
	// consecutive small allocations walk a split block upward).
	for o > order {
		o--
		buddy := frame + (uint64(1) << o)
		a.pushFree(buddy, o)
		a.stats.Splits++
	}
	a.state[frame] = allocHeadState(order)
	a.free -= uint64(1) << order
	a.stats.AllocCalls[order]++
	return frame, true
}

// AllocPage allocates a single page frame (order 0).
func (a *Allocator) AllocPage() (uint64, bool) { return a.AllocOrder(0) }

// AllocAt allocates the specific frame if it is currently free, splitting
// whatever free block contains it. It returns false when the frame is in
// use (or reserved frame 0). Contiguity-aware allocators (the CA-paging
// baseline from the paper's related work) use this to place a page
// physically next to its virtual neighbour on a best-effort basis.
func (a *Allocator) AllocAt(frame uint64) bool {
	if frame == 0 || frame >= a.nframes {
		return false
	}
	// Find the free block containing frame: scan upward over buddy-aligned
	// candidate heads.
	head, order, ok := a.freeBlockContaining(frame)
	if !ok {
		return false
	}
	a.unlinkFree(head, order)
	// Split repeatedly, keeping the half that contains frame and
	// returning the other half to the free lists.
	for order > 0 {
		order--
		half := uint64(1) << order
		if frame < head+half {
			a.pushFree(head+half, order)
		} else {
			a.pushFree(head, order)
			head += half
		}
		a.stats.Splits++
	}
	a.state[frame] = allocHeadState(0)
	a.free--
	a.stats.AllocCalls[0]++
	return true
}

// freeBlockContaining locates the free block covering frame, if any.
func (a *Allocator) freeBlockContaining(frame uint64) (head uint64, order int, ok bool) {
	for o := 0; o <= MaxOrder; o++ {
		h := frame &^ ((uint64(1) << o) - 1)
		if a.state[h] == freeHeadState(o) {
			return h, o, true
		}
	}
	return 0, 0, false
}

// Free returns the block starting at frame to the allocator. The block must
// have been returned by AllocOrder and not freed since; order is validated
// against the allocation record.
func (a *Allocator) Free(frame uint64) {
	if frame == 0 || frame >= a.nframes {
		panic(fmt.Sprintf("buddy: free of invalid frame %d", frame))
	}
	st := a.state[frame]
	if !st.allocatedHead() {
		panic(fmt.Sprintf("buddy: free of frame %d which is not an allocated block head", frame))
	}
	order := st.order()
	a.free += uint64(1) << order
	a.stats.FreeCalls[order]++
	// Coalesce with the buddy while possible.
	for order < MaxOrder {
		buddy := frame ^ (uint64(1) << order)
		if buddy >= a.nframes {
			break
		}
		if a.state[buddy] != freeHeadState(order) {
			break
		}
		a.unlinkFree(buddy, order)
		if buddy < frame {
			a.state[frame] = 0
			frame = buddy
		} else {
			a.state[buddy] = 0
		}
		order++
		a.stats.Merges++
	}
	a.pushFree(frame, order)
}

// Split converts an allocated block of order > 0 into 2^order individually
// allocated order-0 blocks, so each page can be freed on its own. This
// mirrors Linux's split_page(), which PTEMagnet-style reservations rely on:
// the kernel takes a contiguous eight-page chunk but later frees (or maps)
// its pages one at a time. Coalescing on free reassembles larger blocks
// naturally.
func (a *Allocator) Split(frame uint64) {
	st := a.state[frame]
	if !st.allocatedHead() {
		panic(fmt.Sprintf("buddy: split of frame %d which is not an allocated block head", frame))
	}
	order := st.order()
	for i := uint64(0); i < uint64(1)<<order; i++ {
		a.state[frame+i] = allocHeadState(0)
	}
}

// BlockOrder reports the order the block starting at frame was allocated
// with. It panics if frame is not an allocated block head; use it only on
// frames previously returned by AllocOrder.
func (a *Allocator) BlockOrder(frame uint64) int {
	st := a.state[frame]
	if !st.allocatedHead() {
		panic(fmt.Sprintf("buddy: frame %d is not an allocated block head", frame))
	}
	return st.order()
}

// FreeBlocksByOrder returns, for each order, how many free blocks sit on
// that order's free list. Useful for fragmentation inspection.
func (a *Allocator) FreeBlocksByOrder() [MaxOrder + 1]uint64 {
	var counts [MaxOrder + 1]uint64
	for o := 0; o <= MaxOrder; o++ {
		for f := a.freeHead[o]; f != noFrame; f = a.next[f] {
			counts[o]++
		}
	}
	return counts
}

// FreeExtents returns how many maximal free blocks the allocator tracks
// across all orders. Together with FreeFrames it gives a coalescing
// measure: FreeFrames/FreeExtents is the mean free extent, which recovers
// toward larger powers of two as ballooned-out frames merge back into the
// free lists.
func (a *Allocator) FreeExtents() uint64 {
	var n uint64
	for _, c := range a.FreeBlocksByOrder() {
		n += c
	}
	return n
}

// LargestFreeOrder returns the largest order with a non-empty free list, or
// -1 if the allocator is exhausted.
func (a *Allocator) LargestFreeOrder() int {
	for o := MaxOrder; o >= 0; o-- {
		if a.freeHead[o] != noFrame {
			return o
		}
	}
	return -1
}

func (a *Allocator) pushFree(frame uint64, order int) {
	a.state[frame] = freeHeadState(order)
	head := a.freeHead[order]
	a.next[frame] = head
	a.prev[frame] = noFrame
	if head != noFrame {
		a.prev[head] = uint32(frame)
	}
	a.freeHead[order] = uint32(frame)
}

func (a *Allocator) popFree(order int) uint64 {
	frame := uint64(a.freeHead[order])
	a.unlinkFree(frame, order)
	return frame
}

func (a *Allocator) unlinkFree(frame uint64, order int) {
	n, p := a.next[frame], a.prev[frame]
	if p == noFrame {
		a.freeHead[order] = n
	} else {
		a.next[p] = n
	}
	if n != noFrame {
		a.prev[n] = p
	}
	a.state[frame] = 0
}
