// Package metrics computes the paper's measurement quantities that are not
// plain hardware counters — above all the host page-table fragmentation
// metric of §3.2: for every cache block of guest leaf PTEs, how many
// distinct cache blocks hold the corresponding host leaf PTEs. A value of 1
// is perfect packing (PTEMagnet's goal); 8 means every page of the group
// needs its own host PTE block (full fragmentation).
package metrics

import (
	"math"
	"slices"
	"sort"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
)

// FragReport summarizes host-PT fragmentation for one process.
type FragReport struct {
	// Mean is the §3.2 metric: average number of distinct hPTE cache
	// blocks per populated gPTE cache block.
	Mean float64
	// Groups is the number of populated gPTE cache blocks considered.
	Groups int
	// Histogram[n-1] counts gPTE blocks whose hPTEs span exactly n blocks
	// (n in 1..8).
	Histogram [arch.PTEsPerBlock]int
	// FullyScattered is the fraction of gPTE blocks spanning the maximum
	// 8 hPTE blocks — the "63% of contiguous memory regions" figure from
	// the paper's §3.3.
	FullyScattered float64
}

// HostPTFragmentation computes the fragmentation metric for the process
// whose guest page table is gpt, running in the VM whose host page table is
// hpt. Guest pages without host backing (never touched through the nested
// walker) are skipped, as are gPTE blocks with fewer than two mapped pages
// (a single PTE cannot fragment). Pages under a guest 2MB mapping have no
// gPTE and are skipped too.
//
// One pass over the guest's leaf entries suffices: they come in ascending
// virtual-address order, so the pages of one gPTE block arrive back to
// back.
func HostPTFragmentation(gpt, hpt *pagetable.Table) FragReport {
	var rep FragReport
	// sum totals the per-block counts as an integer: divided once, it
	// gives the same Mean as any order of float additions.
	var sum int
	// group is the gPTE block being gathered; blocks holds the hPTE
	// blocks of its host-backed pages, pages of them.
	group := ^uint64(0)
	var blocks [arch.PTEsPerBlock]uint64
	pages := 0
	fold := func() {
		if pages < 2 {
			return
		}
		n := 0
		for i, b := range blocks[:pages] {
			if !slices.Contains(blocks[:i], b) {
				n++
			}
		}
		sum += n
		rep.Groups++
		rep.Histogram[n-1]++
	}
	// hostLeaf is the host leaf node of the 2MB guest-physical region
	// numbered region (NoPhysAddr when the host table has none there).
	// Guest pages come in runs that share a region, and one host descent
	// serves the whole run; the entry address is LeafEntryAddr's.
	region, hostLeaf := ^uint64(0), arch.NoPhysAddr
	gpt.ForEachLeafEntry(func(_ arch.VirtAddr, gEntry, gpa arch.PhysAddr) bool {
		if r := uint64(gpa) >> pagetable.LargePageShift; r != region {
			region = r
			_, _, _, hostLeaf = hpt.Lookup(arch.VirtAddr(gpa))
		}
		if hostLeaf == arch.NoPhysAddr {
			return true // page never touched under virtualization
		}
		hEntry := hostLeaf + arch.PhysAddr(arch.VirtAddr(gpa).PTIndex(1)*arch.PTEBytes)
		if b := gEntry.CacheBlock(); b != group {
			fold()
			group, pages = b, 0
		}
		blocks[pages] = hEntry.CacheBlock()
		pages++
		return true
	})
	fold()
	if rep.Groups > 0 {
		rep.Mean = float64(sum) / float64(rep.Groups)
		rep.FullyScattered = float64(rep.Histogram[arch.PTEsPerBlock-1]) / float64(rep.Groups)
	}
	return rep
}

// Combine merges two fragmentation reports into one covering both
// underlying page-table populations — per-VM reports rolled up into a
// host-wide view. Means are weighted by group count, so Combine over every
// process of every VM equals the metric computed over the union.
func Combine(a, b FragReport) FragReport {
	out := FragReport{Groups: a.Groups + b.Groups}
	for i := range out.Histogram {
		out.Histogram[i] = a.Histogram[i] + b.Histogram[i]
	}
	if out.Groups > 0 {
		out.Mean = (a.Mean*float64(a.Groups) + b.Mean*float64(b.Groups)) / float64(out.Groups)
		out.FullyScattered = float64(out.Histogram[arch.PTEsPerBlock-1]) / float64(out.Groups)
	}
	return out
}

// GaugeSample is one periodic observation of a gauge (§6.2 sampling).
type GaugeSample struct {
	// Accesses is the simulation progress stamp (total accesses executed).
	Accesses uint64
	// Value is the gauge reading.
	Value int64
}

// Series is a recorded gauge time series.
type Series struct {
	Samples []GaugeSample
}

// Record appends a sample.
func (s *Series) Record(accesses uint64, value int64) {
	s.Samples = append(s.Samples, GaugeSample{Accesses: accesses, Value: value})
}

// Max returns the largest sample value, or 0 for an empty series.
func (s *Series) Max() int64 {
	var m int64
	for _, x := range s.Samples {
		if x.Value > m {
			m = x.Value
		}
	}
	return m
}

// Mean returns the average sample value, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.Samples {
		sum += float64(x.Value)
	}
	return sum / float64(len(s.Samples))
}

// Geomean returns the geometric mean of strictly positive values. Values
// ≤ 0 are clamped to the smallest positive ratio the paper's charts would
// show (1e-9) so a single zero does not zero the whole mean.
func Geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range values {
		if v <= 0 {
			v = 1e-9
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values)))
}

// Mean returns the arithmetic mean.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Median returns the median (average of middle two for even counts).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// PercentChange returns (now-base)/base as a percentage; 0 when base is 0.
func PercentChange(base, now float64) float64 {
	if base == 0 {
		return 0
	}
	return (now - base) / base * 100
}

// Speedup returns baseCycles/newCycles - 1 as a percentage — the paper's
// "performance improvement" (positive = PTEMagnet faster).
func Speedup(baseCycles, newCycles uint64) float64 {
	if newCycles == 0 {
		return 0
	}
	return (float64(baseCycles)/float64(newCycles) - 1) * 100
}
