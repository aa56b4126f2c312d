package physmem

import (
	"errors"
	"fmt"
	"testing"

	"ptemagnet/internal/arch"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []uint64{0, 100, arch.PageSize, arch.PageSize + 1, MaxBytes + arch.PageSize} {
		var se *SizeError
		if err := CheckSize(bad); !errors.As(err, &se) || se.Bytes != bad {
			t.Errorf("CheckSize(%d) = %v, want a *SizeError", bad, err)
		}
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); r != CheckSize(bad).Error() {
					t.Errorf("New(%d) panicked with %q, want the CheckSize error", bad, r)
				}
			}()
			New(bad)
		}()
	}
	for _, good := range []uint64{2 * arch.PageSize, 1 << 20, MaxBytes} {
		if err := CheckSize(good); err != nil {
			t.Errorf("CheckSize(%d) = %v", good, err)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	m := New(1 << 20) // 1MB = 256 frames
	if m.Size() != 1<<20 {
		t.Errorf("Size = %d", m.Size())
	}
	if m.NumFrames() != 256 {
		t.Errorf("NumFrames = %d", m.NumFrames())
	}
	if m.FreeFrames() != 255 { // frame 0 reserved
		t.Errorf("FreeFrames = %d", m.FreeFrames())
	}
}

// failAll vetoes every allocation it is asked about.
type failAll struct{ asked int }

func (f *failAll) FailAlloc(int) bool { f.asked++; return true }

// TestAllocTagging checks what the kind argument steers: the fault hook
// vetoes only data allocations (user and reserved), and the empty-pool
// hook serves every single-frame kind but the balloon.
func TestAllocTagging(t *testing.T) {
	m := New(1 << 20)
	hook := &failAll{}
	m.SetAllocHook(hook)
	for _, k := range []FrameKind{KindUser, KindReserved} {
		if _, ok := m.AllocFrame(k); ok {
			t.Errorf("AllocFrame(%v) passed a hook that vetoes everything", k)
		}
		if _, ok := m.AllocGroup(8, k); ok {
			t.Errorf("AllocGroup(8, %v) passed a hook that vetoes everything", k)
		}
	}
	if hook.asked != 4 {
		t.Errorf("hook consulted %d times for 4 data allocations", hook.asked)
	}
	for _, k := range []FrameKind{KindPageTable, KindKernel, KindBalloon} {
		if _, ok := m.AllocFrame(k); !ok {
			t.Errorf("AllocFrame(%v) vetoed", k)
		}
	}
	if hook.asked != 4 || m.UsedFrames() != 3 {
		t.Errorf("hook asked %d times, %d frames used; want 4 and 3", hook.asked, m.UsedFrames())
	}
	m.SetAllocHook(nil)

	// Exhaust the pool, then ask per kind whether the empty hook runs.
	var held []arch.PhysAddr
	for {
		pa, ok := m.AllocFrame(KindKernel)
		if !ok {
			break
		}
		held = append(held, pa)
	}
	var asked []FrameKind
	m.SetEmptyHook(func(k FrameKind) bool {
		asked = append(asked, k)
		m.FreeBlock(held[len(held)-1])
		held = held[:len(held)-1]
		return true
	})
	if _, ok := m.AllocFrame(KindBalloon); ok {
		t.Error("balloon allocation on an empty pool succeeded")
	}
	if _, ok := m.AllocFrame(KindPageTable); !ok {
		t.Error("the empty hook's freed frame was not retried")
	}
	if len(asked) != 1 || asked[0] != KindPageTable {
		t.Errorf("empty hook asked for %v, want [pagetable]", asked)
	}
}

// TestAllocOrderTagsWholeBlock checks that an order-3 block is taken and
// given back whole: FreeBlock of its head returns all eight frames.
func TestAllocOrderTagsWholeBlock(t *testing.T) {
	m := New(1 << 20)
	pa, ok := m.AllocOrder(3, KindReserved)
	if !ok {
		t.Fatal("alloc failed")
	}
	if uint64(pa)%(8*arch.PageSize) != 0 {
		t.Errorf("order-3 block at %#x not 32KB-aligned", uint64(pa))
	}
	if m.UsedFrames() != 8 {
		t.Errorf("UsedFrames = %d after an order-3 alloc, want 8", m.UsedFrames())
	}
	for i := 0; i < 8; i++ {
		if m.AllocFrameAt(pa + arch.PhysAddr(i*arch.PageSize)) {
			t.Errorf("frame %d of an allocated block was handed out again", i)
		}
	}
	m.FreeBlock(pa)
	if m.UsedFrames() != 0 {
		t.Errorf("UsedFrames = %d after FreeBlock, want 0", m.UsedFrames())
	}
	for i := 0; i < 8; i++ {
		if p := pa + arch.PhysAddr(i*arch.PageSize); !m.AllocFrameAt(p) {
			t.Errorf("frame %d not free after FreeBlock", i)
		}
	}
}

func TestCounting(t *testing.T) {
	m := New(1 << 20)
	for i := 0; i < 5; i++ {
		m.AllocFrame(KindUser)
	}
	for i := 0; i < 3; i++ {
		m.AllocFrame(KindPageTable)
	}
	if got := m.UsedFrames(); got != 8 {
		t.Errorf("UsedFrames = %d over 5 user and 3 page-table frames", got)
	}
	if got := m.FreeFrames(); got != 255-8 {
		t.Errorf("FreeFrames = %d", got)
	}
}

// TestFrameZeroIsKernel checks that frame 0 is never handed out, neither
// on request nor when the pool runs dry.
func TestFrameZeroIsKernel(t *testing.T) {
	m := New(16 * arch.PageSize)
	if m.AllocFrameAt(0) {
		t.Error("AllocFrameAt(0) succeeded")
	}
	for {
		pa, ok := m.AllocFrame(KindUser)
		if !ok {
			break
		}
		if pa == 0 {
			t.Fatal("frame 0 handed out")
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(1 << 20)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range FreeBlock did not panic")
		}
	}()
	m.FreeBlock(arch.PhysAddr(1 << 21))
}

func TestExhaustion(t *testing.T) {
	m := New(16 * arch.PageSize)
	n := 0
	for {
		if _, ok := m.AllocFrame(KindUser); !ok {
			break
		}
		n++
	}
	if n != 15 {
		t.Errorf("allocated %d frames from 16-frame memory, want 15", n)
	}
	if _, ok := m.AllocOrder(3, KindUser); ok {
		t.Error("order-3 alloc succeeded on exhausted memory")
	}
}

func TestKindString(t *testing.T) {
	names := map[FrameKind]string{
		KindUser: "user", KindPageTable: "pagetable", KindReserved: "reserved",
		KindKernel: "kernel", KindBalloon: "balloon",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if FrameKind(99).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestAllocGroup(t *testing.T) {
	m := New(1 << 20)
	pa, ok := m.AllocGroup(8, KindReserved)
	if !ok {
		t.Fatal("AllocGroup failed")
	}
	if uint64(pa)%(8*arch.PageSize) != 0 {
		t.Errorf("group at %#x not naturally aligned", uint64(pa))
	}
	// Frames are individually freeable.
	free0 := m.FreeFrames()
	m.FreeBlock(pa + 3*arch.PageSize)
	if m.FreeFrames() != free0+1 {
		t.Errorf("individual free released %d frames", m.FreeFrames()-free0)
	}
	for i := 0; i < 8; i++ {
		if i == 3 {
			continue
		}
		m.FreeBlock(pa + arch.PhysAddr(i*arch.PageSize))
	}
	if m.UsedFrames() != 0 {
		t.Errorf("UsedFrames = %d after freeing group", m.UsedFrames())
	}
}

func TestAllocGroupValidation(t *testing.T) {
	m := New(1 << 20)
	for _, bad := range []int{0, -8, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AllocGroup(%d) did not panic", bad)
				}
			}()
			m.AllocGroup(bad, KindReserved)
		}()
	}
}

func TestAllocFrameAt(t *testing.T) {
	m := New(1 << 20)
	target := arch.PhysAddr(100 * arch.PageSize)
	if !m.AllocFrameAt(target) {
		t.Fatal("AllocFrameAt failed on free frame")
	}
	if m.UsedFrames() != 1 {
		t.Errorf("UsedFrames = %d", m.UsedFrames())
	}
	if m.AllocFrameAt(target) {
		t.Error("AllocFrameAt succeeded on taken frame")
	}
	if m.AllocFrameAt(arch.PhysAddr(2 << 20)) {
		t.Error("AllocFrameAt succeeded beyond memory")
	}
	m.FreeBlock(target)
	if !m.AllocFrameAt(target) {
		t.Error("not freed")
	}
}
