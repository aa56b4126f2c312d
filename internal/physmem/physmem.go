// Package physmem models the physical memory of one machine (the host) or
// one virtual machine (guest-physical memory).
//
// It wraps a buddy allocator with one tag per frame: what kind of data
// occupies it (user pages, page-table nodes, PTEMagnet reservations, balloon
// pages). The tag steers the fault-injection and empty-pool hooks, which
// treat data and kernel allocations differently, and lets inspection tools
// and tests count frames by kind. Who holds a frame is not recorded here:
// the page tables that map it already say so.
package physmem

import (
	"fmt"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/buddy"
)

// FrameKind classifies the contents of a physical frame.
type FrameKind uint8

const (
	// KindFree marks an unallocated frame.
	KindFree FrameKind = iota
	// KindUser marks a frame holding application data.
	KindUser
	// KindPageTable marks a frame holding a page-table node of this
	// memory's own kernel (guest PT nodes in guest-physical memory, host
	// PT nodes in host-physical memory).
	KindPageTable
	// KindReserved marks a frame inside a PTEMagnet reservation that has
	// been taken from the buddy allocator but not yet mapped to the
	// application. The kernel still owns it and can reclaim it quickly
	// (paper §4.2).
	KindReserved
	// KindKernel marks miscellaneous kernel-owned memory.
	KindKernel
	// KindBalloon marks a frame held by the guest's balloon driver: taken
	// from the guest buddy on host request so the host can drop its
	// backing. The frame is unusable by the guest until the balloon
	// deflates. Only meaningful in guest-physical memory.
	KindBalloon
)

// String returns a short human-readable name for the kind.
func (k FrameKind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindUser:
		return "user"
	case KindPageTable:
		return "pagetable"
	case KindReserved:
		return "reserved"
	case KindKernel:
		return "kernel"
	case KindBalloon:
		return "balloon"
	default:
		return fmt.Sprintf("FrameKind(%d)", uint8(k))
	}
}

// Memory is the physical memory of one machine, managed by a buddy
// allocator with a kind tag per frame.
type Memory struct {
	alloc *buddy.Allocator
	kind  []FrameKind
	hook  AllocHook
	empty func(kind FrameKind) bool
}

// AllocHook vetoes allocations for deterministic fault injection
// (faults.Plan implements it). FailAlloc is consulted once per data
// allocation (see SetAllocHook) with the requested buddy order; returning
// true makes the allocation fail as if no block of sufficient order were
// free.
type AllocHook interface {
	FailAlloc(order int) bool
}

// MaxBytes is the largest memory New accepts: as many frames as one buddy
// allocator manages (16 TiB).
const MaxBytes = buddy.MaxFrames << arch.PageShift

// New creates a memory of the given size in bytes, which must be a positive
// multiple of the page size no larger than MaxBytes.
func New(bytes uint64) *Memory {
	if bytes == 0 || bytes%arch.PageSize != 0 {
		panic(fmt.Sprintf("physmem: size %d is not a positive page multiple", bytes))
	}
	nframes := bytes >> arch.PageShift
	m := &Memory{
		alloc: buddy.New(nframes),
		kind:  make([]FrameKind, nframes),
	}
	// Frame 0 is permanently kernel-reserved (the buddy never hands it
	// out); record it as such.
	m.kind[0] = KindKernel
	return m
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.alloc.NumFrames() << arch.PageShift }

// NumFrames returns the number of page frames.
func (m *Memory) NumFrames() uint64 { return m.alloc.NumFrames() }

// FreeFrames returns the number of free page frames.
func (m *Memory) FreeFrames() uint64 { return m.alloc.FreeFrames() }

// UsedFrames returns the number of allocated page frames.
func (m *Memory) UsedFrames() uint64 { return m.alloc.UsedFrames() }

// Buddy exposes the underlying allocator for read-only inspection (free-list
// shape, stats). Callers must not allocate or free through it directly.
func (m *Memory) Buddy() *buddy.Allocator { return m.alloc }

// SetAllocHook installs a fault-injection hook (nil removes it). The
// hook is consulted for data allocations only — KindUser and
// KindReserved, the kinds with a recovery path above them
// (reclaim-retry, reservation fallback) — never for page-table or kernel
// frames, whose allocation failure has no graceful handler and would
// turn a transient injected fault into a fatal one.
func (m *Memory) SetAllocHook(h AllocHook) { m.hook = h }

// SetEmptyHook installs a last-resort handler consulted when a
// single-frame allocation finds the pool exhausted (nil removes it). The
// handler frees memory if it can — the guest kernel deflates its balloon
// here, mirroring the virtio-balloon OOM notifier — and reports whether a
// retry is worthwhile. It covers every single-frame kind except
// KindBalloon: balloon inflation must never trigger the deflation that
// feeds it. Unlike the fault hook it also covers page-table and kernel
// frames, which is the point — those allocations have no other fallback.
func (m *Memory) SetEmptyHook(f func(kind FrameKind) bool) { m.empty = f }

// vetoed consults the fault hook for one allocation.
func (m *Memory) vetoed(kind FrameKind, order int) bool {
	if m.hook == nil || (kind != KindUser && kind != KindReserved) {
		return false
	}
	return m.hook.FailAlloc(order)
}

// AllocFrame allocates one frame of the given kind and returns its physical
// address. ok is false when memory is exhausted.
func (m *Memory) AllocFrame(kind FrameKind) (arch.PhysAddr, bool) {
	if m.vetoed(kind, 0) {
		return arch.NoPhysAddr, false
	}
	frame, ok := m.alloc.AllocPage()
	if !ok && kind != KindBalloon && m.empty != nil && m.empty(kind) {
		frame, ok = m.alloc.AllocPage()
	}
	if !ok {
		return arch.NoPhysAddr, false
	}
	m.tag(frame, 1, kind)
	return arch.FrameToPhys(frame), true
}

// AllocOrder allocates a 2^order-frame contiguous, naturally aligned block
// of the given kind, returning the address of its first frame. PTEMagnet's
// reservation path uses order 3 (eight pages).
func (m *Memory) AllocOrder(order int, kind FrameKind) (arch.PhysAddr, bool) {
	if m.vetoed(kind, order) {
		return arch.NoPhysAddr, false
	}
	frame, ok := m.alloc.AllocOrder(order)
	if !ok {
		return arch.NoPhysAddr, false
	}
	m.tag(frame, uint64(1)<<order, kind)
	return arch.FrameToPhys(frame), true
}

// AllocFrameAt allocates the specific frame containing pa if it is free,
// tagging it with kind. It reports whether the frame was available.
// Best-effort contiguity allocators use it to extend a previous allocation
// physically.
func (m *Memory) AllocFrameAt(pa arch.PhysAddr, kind FrameKind) bool {
	frame := pa.FrameNumber()
	if frame >= m.alloc.NumFrames() {
		return false
	}
	if !m.alloc.AllocAt(frame) {
		return false
	}
	m.tag(frame, 1, kind)
	return true
}

// AllocGroup allocates a naturally aligned contiguous group of `pages`
// frames (a power of two) and immediately splits it so each frame can be
// freed individually — the allocation pattern of a PTEMagnet reservation.
// It returns the address of the first frame.
func (m *Memory) AllocGroup(pages int, kind FrameKind) (arch.PhysAddr, bool) {
	if pages <= 0 || !arch.IsPowerOfTwo(uint64(pages)) {
		panic(fmt.Sprintf("physmem: group of %d pages is not a power of two", pages))
	}
	order := 0
	for 1<<order < pages {
		order++
	}
	if m.vetoed(kind, order) {
		return arch.NoPhysAddr, false
	}
	frame, ok := m.alloc.AllocOrder(order)
	if !ok {
		return arch.NoPhysAddr, false
	}
	if order > 0 {
		m.alloc.Split(frame)
	}
	m.tag(frame, uint64(pages), kind)
	return arch.FrameToPhys(frame), true
}

// FreeBlock returns the block starting at pa (previously returned by
// AllocFrame or AllocOrder) to the allocator.
func (m *Memory) FreeBlock(pa arch.PhysAddr) {
	frame := pa.FrameNumber()
	order := m.alloc.BlockOrder(frame)
	m.alloc.Free(frame)
	m.tag(frame, uint64(1)<<order, KindFree)
}

// Kind returns the kind of the frame containing pa.
func (m *Memory) Kind(pa arch.PhysAddr) FrameKind {
	return m.kind[m.checkFrame(pa)]
}

// SetKind retags the single frame containing pa. The kernels use it when a
// reserved frame is finally mapped to the application (reserved → user) and
// when reservations are torn down.
func (m *Memory) SetKind(pa arch.PhysAddr, kind FrameKind) {
	m.kind[m.checkFrame(pa)] = kind
}

// CountKind returns how many frames currently carry the given kind.
func (m *Memory) CountKind(kind FrameKind) uint64 {
	var n uint64
	for _, k := range m.kind {
		if k == kind {
			n++
		}
	}
	return n
}

func (m *Memory) tag(frame, count uint64, kind FrameKind) {
	for i := uint64(0); i < count; i++ {
		m.kind[frame+i] = kind
	}
}

func (m *Memory) checkFrame(pa arch.PhysAddr) uint64 {
	f := pa.FrameNumber()
	if f >= m.alloc.NumFrames() {
		panic(fmt.Sprintf("physmem: address %#x beyond memory of %d frames", uint64(pa), m.alloc.NumFrames()))
	}
	return f
}
