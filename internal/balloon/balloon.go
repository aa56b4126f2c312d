// Package balloon is the host's memory-overcommit pressure controller:
// the piece that lets a host whose tenants' combined guest memory
// exceeds host-physical memory keep running instead of dying on the
// first OOMError.
//
// The controller watches host free frames against a low/high watermark
// pair. Below the low watermark it picks victim guests — coldest
// estimated working set first, VM id as tiebreak — and raises their
// balloon targets; each guest's balloon driver (guestos) then surrenders
// frames, breaking PTEMagnet reservations via the §4.3 reclaim daemon
// and swapping cold pages as a last resort. Every guest frame the
// balloon swallows lets the host unback its guest-physical page, and the
// freed host frames coalesce back into the host buddy allocator. When
// free frames recover above the high watermark the controller deflates
// every balloon, returning the hoarded frames to the guests.
//
// Working sets are estimated from the PML-style dirty logs built for
// live migration (PR 8): each sample drains every tenant's log and uses
// the dirtied-page count of the window as that tenant's heat.
//
// Everything is event-count keyed: sampling and watermark checks run
// from the machine loop at access-count boundaries, and relief runs
// synchronously inside host fault handling. No wall clock, no
// randomness — two runs of the same machine make identical decisions.
package balloon

import (
	"fmt"
	"sort"
	"strings"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/obs"
)

// Config arms the controller. The zero value is disabled; a HostConfig
// embeds it so a zero-valued host stays balloon-free with the hot path
// untouched.
type Config struct {
	// Enabled arms the controller.
	Enabled bool
}

// SampleEvery is the machine-access cadence of working-set sampling and
// watermark checks.
const SampleEvery = 2048

// Watermarks and relief step.
const (
	// lowFreeFrac is the low watermark: when host free frames fall below
	// this fraction of total frames, the controller inflates balloons.
	lowFreeFrac = 1.0 / 16
	// highFreeFrac is the high watermark: relief inflates until free
	// frames reach it, and the controller deflates every balloon once
	// free frames exceed it.
	highFreeFrac = 1.0 / 8
	// chunkPages is the balloon-target increment per victim per relief
	// round, and the slack added above an allocation's immediate need so
	// back-to-back faults don't each pay for a relief cycle.
	chunkPages = 64
)

// Stats aggregates controller activity.
type Stats struct {
	// Samples counts working-set sampling rounds.
	Samples uint64
	// WatermarkHits counts checks that found free frames below the low
	// watermark.
	WatermarkHits uint64
	// Reliefs counts RelieveFor calls from the host allocation path;
	// ReliefFailures the subset that could not meet the request.
	Reliefs        uint64
	ReliefFailures uint64
	// Inflations counts balloon-target raise rounds; Deflations counts
	// full deflates.
	Inflations uint64
	Deflations uint64
	// InflatedPages counts guest frames swallowed by balloons;
	// DeflatedPages counts frames returned.
	InflatedPages uint64
	DeflatedPages uint64
	// UnbackedFrames counts host frames actually freed by unbacking
	// ballooned pages (inflated pages that never had host backing free
	// nothing).
	UnbackedFrames uint64
	// SwappedPages counts guest pages the balloon drivers swapped out to
	// satisfy inflation.
	SwappedPages uint64
}

// Delta returns the counter-wise difference s - prev.
func (s Stats) Delta(prev Stats) Stats {
	var d Stats
	d.Samples = s.Samples - prev.Samples
	d.WatermarkHits = s.WatermarkHits - prev.WatermarkHits
	d.Reliefs = s.Reliefs - prev.Reliefs
	d.ReliefFailures = s.ReliefFailures - prev.ReliefFailures
	d.Inflations = s.Inflations - prev.Inflations
	d.Deflations = s.Deflations - prev.Deflations
	d.InflatedPages = s.InflatedPages - prev.InflatedPages
	d.DeflatedPages = s.DeflatedPages - prev.DeflatedPages
	d.UnbackedFrames = s.UnbackedFrames - prev.UnbackedFrames
	d.SwappedPages = s.SwappedPages - prev.SwappedPages
	return d
}

// tenant is the controller's view of one guest: the host-side VM, the
// guest kernel whose balloon driver it drives, a TLB-invalidation hook
// for swapped-out pages, and the last working-set estimate.
type tenant struct {
	vm            *hostos.VM
	kernel        *guestos.Kernel
	invalidate    func(asid uint32, va arch.VirtAddr)
	invalidateGPA func(gpa arch.PhysAddr)
	ws            uint64
}

// Controller is the host pressure controller. It implements
// hostos.PressureReliever.
type Controller struct {
	host    *hostos.Kernel
	tenants []*tenant
	stats   Stats
}

// New creates a controller over the given host kernel.
func New(host *hostos.Kernel) *Controller {
	return &Controller{host: host}
}

// Snapshot returns a copy of the activity counters.
func (c *Controller) Snapshot() Stats { return c.stats }

// RegisterObs registers the controller's counters on r under prefix.
func (c *Controller) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"samples", func() uint64 { return c.stats.Samples })
	r.Counter(prefix+"watermark_hits", func() uint64 { return c.stats.WatermarkHits })
	r.Counter(prefix+"reliefs", func() uint64 { return c.stats.Reliefs })
	r.Counter(prefix+"relief_failures", func() uint64 { return c.stats.ReliefFailures })
	r.Counter(prefix+"inflations", func() uint64 { return c.stats.Inflations })
	r.Counter(prefix+"deflations", func() uint64 { return c.stats.Deflations })
	r.Counter(prefix+"inflated_pages", func() uint64 { return c.stats.InflatedPages })
	r.Counter(prefix+"deflated_pages", func() uint64 { return c.stats.DeflatedPages })
	r.Counter(prefix+"unbacked_frames", func() uint64 { return c.stats.UnbackedFrames })
	r.Counter(prefix+"swapped_pages", func() uint64 { return c.stats.SwappedPages })
}

// Attach registers a guest with the controller and enables the VM's
// dirty logging so working-set samples have something to drain.
// invalidate, when non-nil, is called for every page the guest's balloon
// driver swaps out, so the embedding layer can drop stale TLB entries;
// invalidateGPA likewise for every guest-physical frame the controller
// unbacks (nested-TLB entries for unbacked frames are stale).
func (c *Controller) Attach(vm *hostos.VM, kernel *guestos.Kernel, invalidate func(asid uint32, va arch.VirtAddr), invalidateGPA func(gpa arch.PhysAddr)) {
	vm.EnableDirtyLogging(0)
	c.tenants = append(c.tenants, &tenant{vm: vm, kernel: kernel, invalidate: invalidate, invalidateGPA: invalidateGPA})
}

// Detach removes the guest attached as vm. Its balloon is left as-is
// (the VM is usually about to be destroyed).
func (c *Controller) Detach(vm *hostos.VM) {
	for i, t := range c.tenants {
		if t.vm == vm {
			c.tenants = append(c.tenants[:i], c.tenants[i+1:]...)
			return
		}
	}
}

// Tenants returns the number of attached guests.
func (c *Controller) Tenants() int { return len(c.tenants) }

// Sample drains every tenant's dirty log and records the dirtied-page
// count of the window as that tenant's working-set estimate.
func (c *Controller) Sample() {
	c.stats.Samples++
	for _, t := range c.tenants {
		if !t.vm.Alive() {
			continue
		}
		pages, _ := t.vm.DrainDirtyLog()
		t.ws = uint64(len(pages))
	}
}

// Check runs the watermark policy once: below the low watermark it
// inflates balloons until free frames reach the high watermark; above
// the high watermark it deflates every balloon. Call it at deterministic
// event-count boundaries.
func (c *Controller) Check() {
	mem := c.host.Memory()
	total := float64(mem.NumFrames())
	free := mem.FreeFrames()
	low := uint64(lowFreeFrac * total)
	high := uint64(highFreeFrac * total)
	if free < low {
		c.stats.WatermarkHits++
		c.relieve(high, -1)
		return
	}
	if free > high {
		c.deflateAll()
	}
}

// RelieveFor implements hostos.PressureReliever: called when an
// allocation of need frames on behalf of VM vmID found the host buddy
// empty. It balloons the coldest victims until need plus a chunk of
// slack is free, and reports a summary for OOM diagnostics.
func (c *Controller) RelieveFor(vmID int, need uint64) (string, bool) {
	c.stats.Reliefs++
	mem := c.host.Memory()
	if mem.FreeFrames() >= need {
		return fmt.Sprintf("%d free, no relief needed", mem.FreeFrames()), true
	}
	summary := c.relieve(need+chunkPages, vmID)
	ok := mem.FreeFrames() >= need
	if !ok {
		c.stats.ReliefFailures++
	}
	return summary, ok
}

// relieve balloons victims until the host has at least goalFree free
// frames or every victim is dry. Victims are visited coldest working set
// first, VM id as tiebreak, with the requesting VM (if any) last — its
// own pages are the ones we least want to steal. The returned summary
// lists the victims tried and pages reclaimed.
func (c *Controller) relieve(goalFree uint64, requester int) string {
	mem := c.host.Memory()
	victims := make([]*tenant, 0, len(c.tenants))
	for _, t := range c.tenants {
		if t.vm.Alive() {
			victims = append(victims, t)
		}
	}
	sort.SliceStable(victims, func(i, j int) bool {
		ri, rj := victims[i].vm.ID() == requester, victims[j].vm.ID() == requester
		if ri != rj {
			return rj // requester sorts last
		}
		if victims[i].ws != victims[j].ws {
			return victims[i].ws < victims[j].ws
		}
		return victims[i].vm.ID() < victims[j].vm.ID()
	})
	var sb strings.Builder
	var freedTotal uint64
	for _, t := range victims {
		if mem.FreeFrames() >= goalFree {
			break
		}
		freed := c.inflateVictim(t, goalFree)
		freedTotal += freed
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "vm%d(ws=%d,freed=%d)", t.vm.ID(), t.ws, freed)
	}
	if sb.Len() == 0 {
		return "no victims available"
	}
	fmt.Fprintf(&sb, "; %d page(s) reclaimed", freedTotal)
	return sb.String()
}

// inflateVictim raises t's balloon target in chunks, unbacking every
// frame the guest surrenders, until the host reaches goalFree free
// frames or the guest cannot inflate further. It returns the number of
// host frames freed.
func (c *Controller) inflateVictim(t *tenant, goalFree uint64) uint64 {
	mem := c.host.Memory()
	var freed uint64
	for mem.FreeFrames() < goalFree {
		c.stats.Inflations++
		delta := t.kernel.SetBalloonTarget(t.kernel.BalloonPages() + chunkPages)
		for _, rec := range delta.SwappedOut {
			c.stats.SwappedPages++
			if t.invalidate != nil {
				t.invalidate(rec.ASID, rec.VA)
			}
		}
		for _, gpa := range delta.Inflated {
			c.stats.InflatedPages++
			if t.vm.Unback(gpa) {
				c.stats.UnbackedFrames++
				freed++
				if t.invalidateGPA != nil {
					t.invalidateGPA(gpa)
				}
			}
		}
		if len(delta.Inflated) == 0 {
			// Guest dry: pin the target back to what the balloon actually
			// holds so later rounds don't chase an unreachable target.
			t.kernel.SetBalloonTarget(t.kernel.BalloonPages())
			break
		}
	}
	return freed
}

// deflateAll returns every balloon's frames to its guest. Host backing
// for the released pages is re-established lazily on next access, so
// deflation itself allocates nothing.
func (c *Controller) deflateAll() {
	deflated := false
	for _, t := range c.tenants {
		if !t.vm.Alive() || t.kernel.BalloonPages() == 0 {
			continue
		}
		delta := t.kernel.SetBalloonTarget(0)
		c.stats.DeflatedPages += uint64(len(delta.Deflated))
		deflated = true
	}
	if deflated {
		c.stats.Deflations++
	}
}
