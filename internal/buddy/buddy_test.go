package buddy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSeedsFreeLists(t *testing.T) {
	a := New(1 << 12) // 4096 frames
	if a.NumFrames() != 1<<12 {
		t.Fatalf("NumFrames = %d", a.NumFrames())
	}
	// Frame 0 is reserved, so 4095 frames are free.
	if a.FreeFrames() != (1<<12)-1 {
		t.Fatalf("FreeFrames = %d, want %d", a.FreeFrames(), (1<<12)-1)
	}
	if a.UsedFrames() != 0 {
		t.Fatalf("UsedFrames = %d, want 0", a.UsedFrames())
	}
}

func TestAllocPageNeverReturnsFrameZero(t *testing.T) {
	a := New(64)
	for {
		f, ok := a.AllocPage()
		if !ok {
			break
		}
		if f == 0 {
			t.Fatal("allocator returned reserved frame 0")
		}
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := New(1 << 10)
	before := a.FreeFrames()
	f, ok := a.AllocOrder(3)
	if !ok {
		t.Fatal("AllocOrder(3) failed")
	}
	if f%8 != 0 {
		t.Errorf("order-3 block at frame %d is not 8-aligned", f)
	}
	if a.FreeFrames() != before-8 {
		t.Errorf("FreeFrames = %d, want %d", a.FreeFrames(), before-8)
	}
	if got := a.BlockOrder(f); got != 3 {
		t.Errorf("BlockOrder = %d, want 3", got)
	}
	a.Free(f)
	if a.FreeFrames() != before {
		t.Errorf("after free, FreeFrames = %d, want %d", a.FreeFrames(), before)
	}
}

func TestBlockAlignment(t *testing.T) {
	a := New(1 << 12)
	for order := 0; order <= 6; order++ {
		f, ok := a.AllocOrder(order)
		if !ok {
			t.Fatalf("AllocOrder(%d) failed", order)
		}
		if f%(1<<order) != 0 {
			t.Errorf("order-%d block at frame %d is misaligned", order, f)
		}
	}
}

func TestExhaustionAndRecovery(t *testing.T) {
	a := New(128)
	var frames []uint64
	for {
		f, ok := a.AllocPage()
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) != 127 {
		t.Fatalf("allocated %d single frames, want 127", len(frames))
	}
	if _, ok := a.AllocPage(); ok {
		t.Fatal("allocation succeeded on exhausted allocator")
	}
	if a.Snapshot().Failures == 0 {
		t.Error("failure not counted")
	}
	for _, f := range frames {
		a.Free(f)
	}
	if a.FreeFrames() != 127 {
		t.Fatalf("FreeFrames = %d after freeing all", a.FreeFrames())
	}
	// Coalescing must have restored large blocks: an order-6 alloc works.
	if _, ok := a.AllocOrder(6); !ok {
		t.Error("order-6 allocation failed after full free — coalescing broken")
	}
}

func TestCoalescingRestoresMaximalBlocks(t *testing.T) {
	n := uint64(1 << 10)
	a := New(n)
	want := a.FreeBlocksByOrder()
	var frames []uint64
	for i := 0; i < 300; i++ {
		f, ok := a.AllocPage()
		if !ok {
			t.Fatal("alloc failed")
		}
		frames = append(frames, f)
	}
	// Free in random order; coalescing must restore the exact initial
	// free-list shape.
	r := rand.New(rand.NewSource(42))
	r.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	for _, f := range frames {
		a.Free(f)
	}
	if got := a.FreeBlocksByOrder(); got != want {
		t.Errorf("free-list shape after churn = %v, want %v", got, want)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := New(64)
	f, _ := a.AllocPage()
	a.Free(f)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(f)
}

func TestFreeOfNonHeadPanics(t *testing.T) {
	a := New(64)
	f, ok := a.AllocOrder(2)
	if !ok {
		t.Fatal("alloc failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("free of interior frame did not panic")
		}
	}()
	a.Free(f + 1)
}

func TestFreeFrameZeroPanics(t *testing.T) {
	a := New(64)
	defer func() {
		if recover() == nil {
			t.Error("free of frame 0 did not panic")
		}
	}()
	a.Free(0)
}

func TestInterleavedAllocationsAreInterleaved(t *testing.T) {
	// Two "processes" taking turns allocating single pages get physically
	// interleaved frames — the fragmentation behaviour the paper builds
	// on. Verify adjacency is broken: consecutive allocations by process
	// A are rarely physically adjacent when B allocates in between.
	a := New(1 << 12)
	var procA, procB []uint64
	for i := 0; i < 256; i++ {
		fa, ok := a.AllocPage()
		if !ok {
			t.Fatal("alloc failed")
		}
		fb, ok := a.AllocPage()
		if !ok {
			t.Fatal("alloc failed")
		}
		procA = append(procA, fa)
		procB = append(procB, fb)
	}
	adjacent := 0
	for i := 1; i < len(procA); i++ {
		if procA[i] == procA[i-1]+1 {
			adjacent++
		}
	}
	if adjacent > len(procA)/2 {
		t.Errorf("%d/%d of A's consecutive allocations are physically adjacent; interleaving not modelled", adjacent, len(procA)-1)
	}
	_ = procB
}

func TestSoloAllocationsAreMostlyContiguous(t *testing.T) {
	// A single process allocating page by page from a fresh allocator
	// walks split blocks upward, producing mostly-adjacent frames — the
	// favourable native case from §2.6.
	a := New(1 << 12)
	prev, _ := a.AllocPage()
	adjacent, total := 0, 0
	for i := 0; i < 512; i++ {
		f, ok := a.AllocPage()
		if !ok {
			t.Fatal("alloc failed")
		}
		if f == prev+1 {
			adjacent++
		}
		total++
		prev = f
	}
	if adjacent < total*3/4 {
		t.Errorf("only %d/%d consecutive solo allocations adjacent; split order wrong", adjacent, total)
	}
}

func TestStatsCounting(t *testing.T) {
	a := New(1 << 10)
	// The seeded free lists hold one small block per low order (frames
	// 1,2,4…), so the first order-0 alloc pops without splitting; the
	// second must split a larger block, and freeing both merges back.
	f0, _ := a.AllocOrder(0)
	f1, _ := a.AllocOrder(0)
	f3, _ := a.AllocOrder(3)
	a.Free(f1)
	a.Free(f0)
	a.Free(f3)
	s := a.Snapshot()
	if s.AllocCalls[0] != 2 || s.AllocCalls[3] != 1 {
		t.Errorf("AllocCalls = %v", s.AllocCalls)
	}
	if s.FreeCalls[0] != 2 || s.FreeCalls[3] != 1 {
		t.Errorf("FreeCalls = %v", s.FreeCalls)
	}
	if s.Splits == 0 {
		t.Error("no splits recorded")
	}
	if s.Merges == 0 {
		t.Error("no merges recorded")
	}
}

func TestLargestFreeOrder(t *testing.T) {
	a := New(1 << 12)
	if a.LargestFreeOrder() != MaxOrder {
		t.Errorf("LargestFreeOrder = %d, want %d", a.LargestFreeOrder(), MaxOrder)
	}
	// Exhaust everything.
	for {
		if _, ok := a.AllocPage(); !ok {
			break
		}
	}
	if a.LargestFreeOrder() != -1 {
		t.Errorf("LargestFreeOrder on empty = %d, want -1", a.LargestFreeOrder())
	}
}

func TestBadOrderPanics(t *testing.T) {
	a := New(64)
	defer func() {
		if recover() == nil {
			t.Error("AllocOrder(MaxOrder+1) did not panic")
		}
	}()
	a.AllocOrder(MaxOrder + 1)
}

// Property: any sequence of allocations and frees conserves frames and never
// hands out overlapping blocks.
func TestQuickNoOverlapAndConservation(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		const nframes = 1 << 9
		a := New(nframes)
		r := rand.New(rand.NewSource(seed))
		owned := map[uint64]int{} // frame -> order
		claimed := map[uint64]bool{}
		for _, op := range ops {
			if op%2 == 0 || len(owned) == 0 {
				order := int(op>>2) % 5
				frame, ok := a.AllocOrder(order)
				if !ok {
					continue
				}
				for i := uint64(0); i < 1<<order; i++ {
					if claimed[frame+i] {
						return false // overlap
					}
					claimed[frame+i] = true
				}
				owned[frame] = order
			} else {
				// Free a random owned block.
				ks := make([]uint64, 0, len(owned))
				for k := range owned {
					ks = append(ks, k)
				}
				k := ks[r.Intn(len(ks))]
				for i := uint64(0); i < 1<<owned[k]; i++ {
					delete(claimed, k+i)
				}
				a.Free(k)
				delete(owned, k)
			}
		}
		return a.FreeFrames()+uint64(len(claimed)) == nframes-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// BenchmarkPipelineBuddy measures the allocator alone. AllocFreePage is
// one order-0 allocation and its free; Group is a PTEMagnet reservation's
// life: an order-3 allocation, Split, and the eight page frees that
// coalesce it back. New builds a 1M-frame (4 GB) allocator; its B/op is
// the per-frame metadata, 9 bytes a frame.
func BenchmarkPipelineBuddy(b *testing.B) {
	b.Run("AllocFreePage", func(b *testing.B) {
		a := New(1 << 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, ok := a.AllocPage()
			if !ok {
				b.Fatal("exhausted")
			}
			a.Free(f)
		}
	})
	b.Run("Group", func(b *testing.B) {
		a := New(1 << 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, ok := a.AllocOrder(3)
			if !ok {
				b.Fatal("exhausted")
			}
			a.Split(f)
			for p := f; p < f+8; p++ {
				a.Free(p)
			}
		}
	})
	b.Run("New", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if New(1<<20).FreeFrames() != 1<<20-1 {
				b.Fatal("fresh allocator not fully free")
			}
		}
	})
}

func TestNewRejectsTooManyFrames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(MaxFrames+1) did not panic")
		}
	}()
	New(MaxFrames + 1)
}

func TestSplitAllowsIndividualFrees(t *testing.T) {
	a := New(1 << 10)
	before := a.FreeFrames()
	f, ok := a.AllocOrder(3)
	if !ok {
		t.Fatal("alloc failed")
	}
	a.Split(f)
	// Every frame is now its own order-0 block.
	for i := uint64(0); i < 8; i++ {
		if got := a.BlockOrder(f + i); got != 0 {
			t.Errorf("frame %d order = %d after split", i, got)
		}
	}
	// Free them out of order; coalescing must restore the full count.
	for _, off := range []uint64{3, 0, 7, 1, 5, 2, 6, 4} {
		a.Free(f + off)
	}
	if a.FreeFrames() != before {
		t.Errorf("FreeFrames = %d, want %d", a.FreeFrames(), before)
	}
	// The 8-page block must be allocatable again as order 3.
	if f2, ok := a.AllocOrder(3); !ok {
		t.Error("order-3 realloc failed after split-free cycle")
	} else {
		a.Free(f2)
	}
}

func TestSplitOfFreeBlockPanics(t *testing.T) {
	a := New(64)
	f, _ := a.AllocOrder(2)
	a.Free(f)
	defer func() {
		if recover() == nil {
			t.Error("split of free block did not panic")
		}
	}()
	a.Split(f)
}

func TestSplitOrderZeroIsNoop(t *testing.T) {
	a := New(64)
	f, _ := a.AllocPage()
	a.Split(f)
	a.Free(f) // must not panic
}

func TestAllocAt(t *testing.T) {
	a := New(1 << 10)
	before := a.FreeFrames()
	// Pick a frame interior to a large free block.
	if !a.AllocAt(700) {
		t.Fatal("AllocAt(700) failed on fresh allocator")
	}
	if a.FreeFrames() != before-1 {
		t.Errorf("FreeFrames = %d", a.FreeFrames())
	}
	if got := a.BlockOrder(700); got != 0 {
		t.Errorf("order = %d", got)
	}
	// The same frame is now taken.
	if a.AllocAt(700) {
		t.Error("AllocAt succeeded on allocated frame")
	}
	// Neighbours are still allocatable.
	if !a.AllocAt(699) || !a.AllocAt(701) {
		t.Error("AllocAt of neighbours failed")
	}
	a.Free(700)
	a.Free(699)
	a.Free(701)
	if a.FreeFrames() != before {
		t.Errorf("conservation violated: %d != %d", a.FreeFrames(), before)
	}
	// Coalescing must have restored a big block.
	if _, ok := a.AllocOrder(8); !ok {
		t.Error("order-8 alloc failed after AllocAt churn")
	}
}

func TestAllocAtInvalidFrames(t *testing.T) {
	a := New(64)
	if a.AllocAt(0) {
		t.Error("AllocAt(0) succeeded on reserved frame")
	}
	if a.AllocAt(64) {
		t.Error("AllocAt beyond range succeeded")
	}
	if a.AllocAt(1 << 40) {
		t.Error("AllocAt far beyond range succeeded")
	}
}

func TestAllocAtEveryFrameThenExhausted(t *testing.T) {
	a := New(128)
	for f := uint64(1); f < 128; f++ {
		if !a.AllocAt(f) {
			t.Fatalf("AllocAt(%d) failed", f)
		}
	}
	if a.FreeFrames() != 0 {
		t.Errorf("FreeFrames = %d", a.FreeFrames())
	}
	if _, ok := a.AllocPage(); ok {
		t.Error("allocation succeeded with all frames targeted")
	}
}

func TestAllocAtAfterRegularAllocations(t *testing.T) {
	a := New(1 << 10)
	f, _ := a.AllocOrder(4) // claims a 16-frame block
	// Frames inside the allocated block are not stealable.
	for i := uint64(0); i < 16; i++ {
		if a.AllocAt(f + i) {
			t.Fatalf("AllocAt stole frame %d of an allocated block", i)
		}
	}
	a.Free(f)
	if !a.AllocAt(f + 5) {
		t.Error("AllocAt failed after the block was freed")
	}
}

// TestFreeExtentsTracksCoalescing pins the coalescing measure the
// overcommit tooling reads: scattered single-page frees fragment the
// free lists into many extents, and freeing their neighbours merges the
// extents back.
func TestFreeExtentsTracksCoalescing(t *testing.T) {
	a := New(128)
	initial := a.FreeExtents()
	if initial == 0 {
		t.Fatal("fresh allocator reports zero free extents")
	}
	var frames []uint64
	for i := 0; i < 32; i++ {
		f, ok := a.AllocPage()
		if !ok {
			t.Fatal("allocation failed")
		}
		frames = append(frames, f)
	}
	// Free every other page: no two are buddies, so each free adds an
	// extent.
	for i := 0; i < len(frames); i += 2 {
		a.Free(frames[i])
	}
	scattered := a.FreeExtents()
	if scattered <= initial {
		t.Errorf("scattered frees left %d extents, want more than %d", scattered, initial)
	}
	// Freeing the partners coalesces pairs (and beyond) back together.
	for i := 1; i < len(frames); i += 2 {
		a.Free(frames[i])
	}
	if got := a.FreeExtents(); got != initial {
		t.Errorf("full free leaves %d extents, want the initial %d", got, initial)
	}
	var sum uint64
	for _, c := range a.FreeBlocksByOrder() {
		sum += c
	}
	if got := a.FreeExtents(); got != sum {
		t.Errorf("FreeExtents = %d, FreeBlocksByOrder sums to %d", got, sum)
	}
}
