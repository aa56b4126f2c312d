package physmem

import (
	"testing"

	"ptemagnet/internal/arch"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []uint64{0, 100, arch.PageSize + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad)
		}()
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

func TestAllocTagging(t *testing.T) {
	m := New(1 << 20)
	pa, ok := m.AllocFrame(KindUser)
	if !ok {
		t.Fatal("alloc failed")
	}
	if m.Kind(pa) != KindUser {
		t.Errorf("Kind = %v, want user", m.Kind(pa))
	}
	if m.UsedFrames() != 1 {
		t.Errorf("UsedFrames = %d", m.UsedFrames())
	}
	m.FreeBlock(pa)
	if m.Kind(pa) != KindFree {
		t.Errorf("Kind after free = %v", m.Kind(pa))
	}
}

func TestAllocOrderTagsWholeBlock(t *testing.T) {
	m := New(1 << 20)
	pa, ok := m.AllocOrder(3, KindReserved)
	if !ok {
		t.Fatal("alloc failed")
	}
	if uint64(pa)%(8*arch.PageSize) != 0 {
		t.Errorf("order-3 block at %#x not 32KB-aligned", uint64(pa))
	}
	for i := 0; i < 8; i++ {
		p := pa + arch.PhysAddr(i*arch.PageSize)
		if m.Kind(p) != KindReserved {
			t.Errorf("frame %d of block: kind=%v", i, m.Kind(p))
		}
	}
	m.FreeBlock(pa)
	for i := 0; i < 8; i++ {
		p := pa + arch.PhysAddr(i*arch.PageSize)
		if m.Kind(p) != KindFree {
			t.Errorf("frame %d not free after FreeBlock", i)
		}
	}
}

func TestSetKindRetagsOneFrame(t *testing.T) {
	m := New(1 << 20)
	pa, _ := m.AllocOrder(3, KindReserved)
	second := pa + arch.PageSize
	m.SetKind(second, KindUser)
	if m.Kind(pa) != KindReserved {
		t.Error("first frame retagged unexpectedly")
	}
	if m.Kind(second) != KindUser {
		t.Error("second frame not retagged")
	}
}

func TestCounting(t *testing.T) {
	m := New(1 << 20)
	var user, pt []arch.PhysAddr
	for i := 0; i < 5; i++ {
		pa, _ := m.AllocFrame(KindUser)
		user = append(user, pa)
	}
	for i := 0; i < 3; i++ {
		pa, _ := m.AllocFrame(KindPageTable)
		pt = append(pt, pa)
	}
	if got := m.CountKind(KindUser); got != 5 {
		t.Errorf("CountKind(user) = %d", got)
	}
	if got := m.CountKind(KindPageTable); got != 3 {
		t.Errorf("CountKind(pagetable) = %d", got)
	}
	_ = user
	_ = pt
}

func TestFrameZeroIsKernel(t *testing.T) {
	m := New(1 << 20)
	if m.Kind(0) != KindKernel {
		t.Errorf("frame 0 kind = %v, want kernel", m.Kind(0))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(1 << 20)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Kind did not panic")
		}
	}()
	m.Kind(arch.PhysAddr(1 << 21))
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
		KindFree: "free", KindUser: "user", KindPageTable: "pagetable",
		KindReserved: "reserved", KindKernel: "kernel",
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
	if !m.AllocFrameAt(target, KindUser) {
		t.Fatal("AllocFrameAt failed on free frame")
	}
	if m.Kind(target) != KindUser {
		t.Errorf("kind=%v", m.Kind(target))
	}
	if m.AllocFrameAt(target, KindUser) {
		t.Error("AllocFrameAt succeeded on taken frame")
	}
	if m.AllocFrameAt(arch.PhysAddr(2<<20), KindUser) {
		t.Error("AllocFrameAt succeeded beyond memory")
	}
	m.FreeBlock(target)
	if m.Kind(target) != KindFree {
		t.Error("not freed")
	}
}
