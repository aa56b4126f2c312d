package metrics

import (
	"math"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/physmem"
)

// buildTables creates a guest table whose 16 pages map to gPAs produced by
// layout(i), and a host table backing every one of those gPAs.
func buildTables(t *testing.T, pages int, layout func(i int) arch.PhysAddr) (*pagetable.Table, *pagetable.Table) {
	t.Helper()
	gmem := physmem.New(64 << 20)
	hmem := physmem.New(64 << 20)
	gpt, err := pagetable.New(gmem)
	if err != nil {
		t.Fatal(err)
	}
	hpt, err := pagetable.New(hmem)
	if err != nil {
		t.Fatal(err)
	}
	base := arch.VirtAddr(0x7f0000000000)
	for i := 0; i < pages; i++ {
		gpa := layout(i)
		if err := gpt.Map(base+arch.VirtAddr(i*arch.PageSize), gpa, 0); err != nil {
			t.Fatal(err)
		}
		// Host backs the guest-physical page (host frame address is
		// irrelevant to the metric — only the hPTE location matters).
		if err := hpt.Map(arch.VirtAddr(gpa), arch.PhysAddr(0x100000+i*arch.PageSize), 0); err != nil {
			t.Fatal(err)
		}
	}
	return gpt, hpt
}

func TestFragmentationPerfectPacking(t *testing.T) {
	// Contiguous, aligned gPAs: one hPTE block per gPTE block → metric 1.
	gpt, hpt := buildTables(t, 16, func(i int) arch.PhysAddr {
		return arch.PhysAddr(0x400000 + i*arch.PageSize)
	})
	rep := HostPTFragmentation(gpt, hpt)
	if rep.Groups != 2 {
		t.Fatalf("Groups = %d, want 2", rep.Groups)
	}
	if rep.Mean != 1 {
		t.Errorf("Mean = %f, want 1", rep.Mean)
	}
	if rep.FullyScattered != 0 {
		t.Errorf("FullyScattered = %f", rep.FullyScattered)
	}
	if rep.Histogram[0] != 2 {
		t.Errorf("Histogram = %v", rep.Histogram)
	}
}

func TestFragmentationFullScatter(t *testing.T) {
	// Every page 64KB apart: 8 distinct hPTE blocks per gPTE block.
	gpt, hpt := buildTables(t, 16, func(i int) arch.PhysAddr {
		return arch.PhysAddr(0x400000 + i*16*arch.PageSize)
	})
	rep := HostPTFragmentation(gpt, hpt)
	if rep.Mean != 8 {
		t.Errorf("Mean = %f, want 8", rep.Mean)
	}
	if rep.FullyScattered != 1 {
		t.Errorf("FullyScattered = %f, want 1", rep.FullyScattered)
	}
}

func TestFragmentationMisalignedContiguity(t *testing.T) {
	// Contiguous but offset by one page: each 8-page group straddles two
	// hPTE blocks → metric 2 (the reason isolation measures ~2.8, not 1).
	gpt, hpt := buildTables(t, 16, func(i int) arch.PhysAddr {
		return arch.PhysAddr(0x400000 + (i+1)*arch.PageSize)
	})
	rep := HostPTFragmentation(gpt, hpt)
	if rep.Mean != 2 {
		t.Errorf("Mean = %f, want 2", rep.Mean)
	}
}

func TestFragmentationSkipsHostUnbacked(t *testing.T) {
	gmem := physmem.New(64 << 20)
	hmem := physmem.New(64 << 20)
	gpt, _ := pagetable.New(gmem)
	hpt, _ := pagetable.New(hmem)
	base := arch.VirtAddr(0x7f0000000000)
	for i := 0; i < 8; i++ {
		gpt.Map(base+arch.VirtAddr(i*arch.PageSize), arch.PhysAddr(0x400000+i*arch.PageSize), 0)
	}
	// Host backs nothing: no groups.
	rep := HostPTFragmentation(gpt, hpt)
	if rep.Groups != 0 || rep.Mean != 0 {
		t.Errorf("report = %+v, want empty", rep)
	}
}

func TestFragmentationIgnoresSingletons(t *testing.T) {
	// One mapped page per group cannot fragment; it must not count.
	gpt, hpt := buildTables(t, 1, func(i int) arch.PhysAddr {
		return arch.PhysAddr(0x400000)
	})
	rep := HostPTFragmentation(gpt, hpt)
	if rep.Groups != 0 {
		t.Errorf("Groups = %d, want 0 (singleton)", rep.Groups)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty series not zero")
	}
	s.Record(10, 5)
	s.Record(20, 15)
	s.Record(30, 10)
	if s.Max() != 15 {
		t.Errorf("Max = %d", s.Max())
	}
	if s.Mean() != 10 {
		t.Errorf("Mean = %f", s.Mean())
	}
	if len(s.Samples) != 3 || s.Samples[1].Accesses != 20 {
		t.Errorf("samples = %+v", s.Samples)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("Geomean(2,8) = %f", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("Geomean(nil) = %f", g)
	}
	if g := Geomean([]float64{0, 4}); g <= 0 || math.IsNaN(g) {
		t.Errorf("Geomean with zero = %f", g)
	}
}

func TestMeanMedian(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %f", m)
	}
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("Median odd = %f", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median even = %f", m)
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty inputs not zero")
	}
}

func TestPercentChangeAndSpeedup(t *testing.T) {
	if c := PercentChange(100, 111); math.Abs(c-11) > 1e-9 {
		t.Errorf("PercentChange = %f", c)
	}
	if c := PercentChange(0, 5); c != 0 {
		t.Errorf("PercentChange base 0 = %f", c)
	}
	if s := Speedup(109, 100); math.Abs(s-9) > 1e-9 {
		t.Errorf("Speedup = %f", s)
	}
	if s := Speedup(100, 0); s != 0 {
		t.Errorf("Speedup zero = %f", s)
	}
}
