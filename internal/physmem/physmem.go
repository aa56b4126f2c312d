// Package physmem models the physical memory of one machine (the host) or
// one virtual machine (guest-physical memory).
//
// It is a buddy allocator plus two hooks: a fault-injection hook and an
// empty-pool hook, which treat data and kernel allocations differently.
// Each allocation names the kind of data it is for, and the kind steers
// those hooks; it is not recorded. Who holds a frame is not recorded here
// either: a page table (a mapped page or a node), a PTEMagnet reservation
// or the balloon already says so.
package physmem

import (
	"fmt"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/buddy"
)

// FrameKind names what an allocation is for. It steers the two hooks
// (SetAllocHook, SetEmptyHook) and is not recorded once the allocation
// returns.
type FrameKind uint8

const (
	// KindUser is application data.
	KindUser FrameKind = iota
	// KindPageTable is a page-table node of this memory's own kernel
	// (guest PT nodes in guest-physical memory, host PT nodes in
	// host-physical memory).
	KindPageTable
	// KindReserved is a PTEMagnet reservation group: taken from the buddy
	// allocator on a group's first fault, mapped to the application page
	// by page, and reclaimable until then (paper §4.2).
	KindReserved
	// KindKernel is miscellaneous kernel-owned memory.
	KindKernel
	// KindBalloon is a frame for the guest's balloon driver: taken from
	// the guest buddy on host request so the host can drop its backing,
	// and unusable by the guest until the balloon deflates. Only
	// meaningful in guest-physical memory.
	KindBalloon
)

// String returns a short human-readable name for the kind.
func (k FrameKind) String() string {
	switch k {
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
// allocator.
type Memory struct {
	alloc *buddy.Allocator
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

// SizeError reports a memory size New cannot model.
type SizeError struct {
	// Bytes is the rejected size.
	Bytes uint64
	// Reason states the violated rule.
	Reason string
}

// Error describes the rejected size.
func (e *SizeError) Error() string {
	return fmt.Sprintf("physmem: size %d %s", e.Bytes, e.Reason)
}

// CheckSize returns a *SizeError unless New accepts a memory of bytes: a
// whole number of pages, at least two (frame 0 is never allocated), and
// at most MaxBytes.
func CheckSize(bytes uint64) error {
	switch {
	case bytes == 0:
		return &SizeError{Bytes: bytes, Reason: "must be set"}
	case bytes%arch.PageSize != 0:
		return &SizeError{Bytes: bytes, Reason: fmt.Sprintf("must be a multiple of the %d-byte page", arch.PageSize)}
	case bytes < 2*arch.PageSize:
		return &SizeError{Bytes: bytes, Reason: "must hold at least two pages: frame 0 is never allocated"}
	case bytes > MaxBytes:
		return &SizeError{Bytes: bytes, Reason: fmt.Sprintf("must not exceed %d bytes, the most frames one buddy allocator manages", MaxBytes)}
	}
	return nil
}

// New creates a memory of the given size in bytes. It panics with the
// CheckSize error for a size CheckSize rejects.
func New(bytes uint64) *Memory {
	if err := CheckSize(bytes); err != nil {
		panic(err)
	}
	return &Memory{alloc: buddy.New(bytes >> arch.PageShift)}
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
	return arch.FrameToPhys(frame), true
}

// AllocFrameAt allocates the specific frame containing pa if it is free.
// It reports whether the frame was available. Best-effort contiguity
// allocators use it to extend a previous allocation physically. No hook
// applies: the caller falls back to AllocFrame when it fails.
func (m *Memory) AllocFrameAt(pa arch.PhysAddr) bool {
	return m.alloc.AllocAt(pa.FrameNumber())
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
	return arch.FrameToPhys(frame), true
}

// FreeBlock returns the block starting at pa (previously returned by
// AllocFrame or AllocOrder, or one frame of an AllocGroup) to the
// allocator.
func (m *Memory) FreeBlock(pa arch.PhysAddr) { m.alloc.Free(pa.FrameNumber()) }
