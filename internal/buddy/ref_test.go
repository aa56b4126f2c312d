package buddy

import (
	"fmt"
	"slices"
	"testing"
)

// refAllocator is the allocator as it was before its per-frame metadata was
// narrowed to 4-byte links and one state byte: 8-byte links and a
// three-field state. FuzzBuddyMatchesReference diffs Allocator against it.
type refAllocator struct {
	nframes  uint64
	freeHead [MaxOrder + 1]uint64
	next     []uint64
	prev     []uint64
	state    []refFrameState
	free     uint64
	stats    Stats
}

type refFrameState struct {
	order  int8
	isFree bool
	isHead bool
}

const refNoFrame = ^uint64(0)

func newRef(nframes uint64) *refAllocator {
	if nframes < 2 {
		panic(fmt.Sprintf("buddy: need at least 2 frames, got %d", nframes))
	}
	a := &refAllocator{
		nframes: nframes,
		next:    make([]uint64, nframes),
		prev:    make([]uint64, nframes),
		state:   make([]refFrameState, nframes),
	}
	for o := range a.freeHead {
		a.freeHead[o] = refNoFrame
	}
	frame := uint64(1)
	for frame < nframes {
		o := maxOrderAt(frame, nframes)
		a.pushFree(frame, o)
		a.free += uint64(1) << o
		frame += uint64(1) << o
	}
	return a
}

func (a *refAllocator) AllocOrder(order int) (frame uint64, ok bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: bad order %d", order))
	}
	o := order
	for o <= MaxOrder && a.freeHead[o] == refNoFrame {
		o++
	}
	if o > MaxOrder {
		a.stats.Failures++
		return 0, false
	}
	frame = a.popFree(o)
	for o > order {
		o--
		buddy := frame + (uint64(1) << o)
		a.pushFree(buddy, o)
		a.stats.Splits++
	}
	a.state[frame] = refFrameState{order: int8(order), isFree: false, isHead: true}
	a.free -= uint64(1) << order
	a.stats.AllocCalls[order]++
	return frame, true
}

func (a *refAllocator) AllocAt(frame uint64) bool {
	if frame == 0 || frame >= a.nframes {
		return false
	}
	head, order, ok := a.freeBlockContaining(frame)
	if !ok {
		return false
	}
	a.unlinkFree(head, order)
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
	a.state[frame] = refFrameState{order: 0, isFree: false, isHead: true}
	a.free--
	a.stats.AllocCalls[0]++
	return true
}

func (a *refAllocator) freeBlockContaining(frame uint64) (head uint64, order int, ok bool) {
	for o := 0; o <= MaxOrder; o++ {
		h := frame &^ ((uint64(1) << o) - 1)
		st := a.state[h]
		if st.isFree && st.isHead && int(st.order) == o {
			return h, o, true
		}
	}
	return 0, 0, false
}

func (a *refAllocator) Free(frame uint64) {
	if frame == 0 || frame >= a.nframes {
		panic(fmt.Sprintf("buddy: free of invalid frame %d", frame))
	}
	st := a.state[frame]
	if !st.isHead || st.isFree {
		panic(fmt.Sprintf("buddy: free of frame %d which is not an allocated block head", frame))
	}
	order := int(st.order)
	a.free += uint64(1) << order
	a.stats.FreeCalls[order]++
	for order < MaxOrder {
		buddy := frame ^ (uint64(1) << order)
		if buddy >= a.nframes {
			break
		}
		bst := a.state[buddy]
		if !bst.isFree || int(bst.order) != order {
			break
		}
		a.unlinkFree(buddy, order)
		if buddy < frame {
			a.state[frame] = refFrameState{}
			frame = buddy
		} else {
			a.state[buddy] = refFrameState{}
		}
		order++
		a.stats.Merges++
	}
	a.pushFree(frame, order)
}

func (a *refAllocator) Split(frame uint64) {
	st := a.state[frame]
	if !st.isHead || st.isFree {
		panic(fmt.Sprintf("buddy: split of frame %d which is not an allocated block head", frame))
	}
	order := int(st.order)
	for i := uint64(0); i < uint64(1)<<order; i++ {
		a.state[frame+i] = refFrameState{order: 0, isFree: false, isHead: true}
	}
}

func (a *refAllocator) BlockOrder(frame uint64) int {
	st := a.state[frame]
	if !st.isHead || st.isFree {
		panic(fmt.Sprintf("buddy: frame %d is not an allocated block head", frame))
	}
	return int(st.order)
}

func (a *refAllocator) FreeBlocksByOrder() [MaxOrder + 1]uint64 {
	var counts [MaxOrder + 1]uint64
	for o := 0; o <= MaxOrder; o++ {
		for f := a.freeHead[o]; f != refNoFrame; f = a.next[f] {
			counts[o]++
		}
	}
	return counts
}

func (a *refAllocator) FreeExtents() uint64 {
	var n uint64
	for _, c := range a.FreeBlocksByOrder() {
		n += c
	}
	return n
}

func (a *refAllocator) LargestFreeOrder() int {
	for o := MaxOrder; o >= 0; o-- {
		if a.freeHead[o] != refNoFrame {
			return o
		}
	}
	return -1
}

func (a *refAllocator) pushFree(frame uint64, order int) {
	a.state[frame] = refFrameState{order: int8(order), isFree: true, isHead: true}
	head := a.freeHead[order]
	a.next[frame] = head
	a.prev[frame] = refNoFrame
	if head != refNoFrame {
		a.prev[head] = frame
	}
	a.freeHead[order] = frame
}

func (a *refAllocator) popFree(order int) uint64 {
	frame := a.freeHead[order]
	a.unlinkFree(frame, order)
	return frame
}

func (a *refAllocator) unlinkFree(frame uint64, order int) {
	n, p := a.next[frame], a.prev[frame]
	if p == refNoFrame {
		a.freeHead[order] = n
	} else {
		a.next[p] = n
	}
	if n != refNoFrame {
		a.prev[n] = p
	}
	a.state[frame] = refFrameState{}
}

// freeLists returns every order's free list, head first, from either
// allocator's links.
func freeLists[F uint32 | uint64](head [MaxOrder + 1]F, next []F, end F) [MaxOrder + 1][]uint64 {
	var lists [MaxOrder + 1][]uint64
	for o := range lists {
		for f := head[o]; f != end; f = next[f] {
			lists[o] = append(lists[o], uint64(f))
		}
	}
	return lists
}

// fuzzFrames is the size of the fuzzed allocators: not a power of two, so
// the seeded free lists hold one block of each of several orders and the
// top block's buddy lies beyond the end.
const fuzzFrames = 300

// panics runs f and reports whether it panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// FuzzBuddyMatchesReference drives one op stream through an Allocator and
// refAllocator of fuzzFrames frames. Every frame handed out, every ok, and
// after each op the free-list contents and order, the counters and the
// query results must agree; a Free the reference rejects must panic on
// both sides.
//
// Each byte pair is one op. The first byte's low three bits pick the op
// and its high five bits an order (AllocOrder, taken mod MaxOrder+1) or,
// with the second byte, a frame (AllocAt, and the invalid Free); for
// Split and the valid Free the second byte indexes the blocks held.
func FuzzBuddyMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		a, ref := New(fuzzFrames), newRef(fuzzFrames)
		var held []uint64 // heads of allocated blocks, in allocation order
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]&7, ops[i+1]
			hi := int(ops[i] >> 3)
			switch op {
			case 0, 1: // AllocOrder
				order := hi % (MaxOrder + 1)
				frame, ok := a.AllocOrder(order)
				rframe, rok := ref.AllocOrder(order)
				if frame != rframe || ok != rok {
					t.Fatalf("op %d: AllocOrder(%d) = %d/%v, reference %d/%v", i/2, order, frame, ok, rframe, rok)
				}
				if ok {
					held = append(held, frame)
				}
			case 2, 3: // AllocPage
				frame, ok := a.AllocPage()
				rframe, rok := ref.AllocOrder(0)
				if frame != rframe || ok != rok {
					t.Fatalf("op %d: AllocPage = %d/%v, reference %d/%v", i/2, frame, ok, rframe, rok)
				}
				if ok {
					held = append(held, frame)
				}
			case 4: // AllocAt
				frame := (uint64(hi)<<8 | uint64(arg)) % (fuzzFrames + 4)
				ok, rok := a.AllocAt(frame), ref.AllocAt(frame)
				if ok != rok {
					t.Fatalf("op %d: AllocAt(%d) = %v, reference %v", i/2, frame, ok, rok)
				}
				if ok {
					held = append(held, frame)
				}
			case 5: // Split
				if len(held) == 0 {
					continue
				}
				frame := held[int(arg)%len(held)]
				order := a.BlockOrder(frame)
				a.Split(frame)
				ref.Split(frame)
				for j := uint64(1); j < uint64(1)<<order; j++ {
					held = append(held, frame+j)
				}
			case 6: // Free of a held block
				if len(held) == 0 {
					continue
				}
				k := int(arg) % len(held)
				frame := held[k]
				held = append(held[:k], held[k+1:]...)
				a.Free(frame)
				ref.Free(frame)
			default: // Free of any frame: must panic on both sides or neither
				frame := (uint64(hi)<<8 | uint64(arg)) % (fuzzFrames + 4)
				rp := panics(func() { ref.Free(frame) })
				if p := panics(func() { a.Free(frame) }); p != rp {
					t.Fatalf("op %d: Free(%d) panicked=%v, reference %v", i/2, frame, p, rp)
				}
				if !rp {
					for k, h := range held {
						if h == frame {
							held = append(held[:k], held[k+1:]...)
							break
						}
					}
				}
			}
			sameState(t, i/2, a, ref, held)
		}
	})
}

// sameState fails unless a and ref agree on every query, counter and free
// list, and on the order of every held block.
func sameState(t *testing.T, op int, a *Allocator, ref *refAllocator, held []uint64) {
	t.Helper()
	if a.FreeFrames() != ref.free {
		t.Fatalf("op %d: FreeFrames = %d, reference %d", op, a.FreeFrames(), ref.free)
	}
	if a.FreeBlocksByOrder() != ref.FreeBlocksByOrder() {
		t.Fatalf("op %d: FreeBlocksByOrder = %v, reference %v", op, a.FreeBlocksByOrder(), ref.FreeBlocksByOrder())
	}
	if a.LargestFreeOrder() != ref.LargestFreeOrder() {
		t.Fatalf("op %d: LargestFreeOrder = %d, reference %d", op, a.LargestFreeOrder(), ref.LargestFreeOrder())
	}
	if a.FreeExtents() != ref.FreeExtents() {
		t.Fatalf("op %d: FreeExtents = %d, reference %d", op, a.FreeExtents(), ref.FreeExtents())
	}
	if a.Snapshot() != ref.stats {
		t.Fatalf("op %d: Snapshot = %+v, reference %+v", op, a.Snapshot(), ref.stats)
	}
	lists := freeLists(a.freeHead, a.next, noFrame)
	rlists := freeLists(ref.freeHead, ref.next, refNoFrame)
	for o := range lists {
		if !slices.Equal(lists[o], rlists[o]) {
			t.Fatalf("op %d: order-%d free list %v, reference %v", op, o, lists[o], rlists[o])
		}
	}
	for _, h := range held {
		if o, ro := a.BlockOrder(h), ref.BlockOrder(h); o != ro {
			t.Fatalf("op %d: BlockOrder(%d) = %d, reference %d", op, h, o, ro)
		}
	}
}
