package nested

import (
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
)

// mapThrough maps va→gpa in the guest table and warms every structure by
// translating it once.
func mapThrough(t testing.TB, r *rig, va arch.VirtAddr, gpa arch.PhysAddr, flags pagetable.Flags) {
	t.Helper()
	if err := r.gpt.Map(va, gpa, flags); err != nil {
		t.Fatal(err)
	}
	if out := translate(r.w, 0, 1, r.gpt, va, false); !out.Ok {
		t.Fatalf("warm translate of %#x failed", uint64(va))
	}
}

// BenchmarkPipelineWalkerFastPath measures a main-TLB hit through the
// dedicated fast path — the common case of the batched machine loop.
func BenchmarkPipelineWalkerFastPath(b *testing.B) {
	r := newRig(b, DefaultConfig())
	va := arch.VirtAddr(0x400000)
	mapThrough(b, r, va, 0x100000, pagetable.FlagWritable)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.w.TranslateFast(1, va, false); !ok {
			b.Fatal("fast path missed on a warm TLB")
		}
	}
}

// BenchmarkPipelineWalkerFullTranslate measures the same hit through the
// machine loop's whole translation step (translate: TranslateFast, then
// TranslateSlow on a miss), for comparison with the bare fast path.
func BenchmarkPipelineWalkerFullTranslate(b *testing.B) {
	r := newRig(b, DefaultConfig())
	va := arch.VirtAddr(0x400000)
	mapThrough(b, r, va, 0x100000, pagetable.FlagWritable)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := translate(r.w, 0, 1, r.gpt, va, false); !out.Ok {
			b.Fatal("translate failed on a warm TLB")
		}
	}
}
