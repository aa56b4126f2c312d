// Reservation drives the Page Reservation Table — the paper's §4 data
// structure — directly through the public API, demonstrating the complete
// reservation life cycle: eager group allocation on first fault, instant
// hits on later faults, entry deletion when a group fills, free() returning
// pages to their reservation, pressure-driven reclamation, and the §6.2
// sparse adversary that maximizes reservation waste.
package main

import (
	"fmt"
	"log"

	"ptemagnet"
	"ptemagnet/internal/physmem"
)

func main() {
	part, err := ptemagnet.NewPaRT(ptemagnet.DefaultPaRTConfig())
	if err != nil {
		log.Fatal(err)
	}
	mem := physmem.New(64 << 20) // 64MB of simulated guest-physical memory
	alloc := func() (ptemagnet.PhysAddr, bool) {
		return mem.AllocGroup(ptemagnet.GroupPages, physmem.KindReserved)
	}

	// --- First fault to a 32KB group reserves the whole group. ---------
	base := ptemagnet.VirtAddr(0x7f00_0000_0000)
	pa, res := part.HandleFault(base+2*ptemagnet.PageSize, alloc)
	fmt.Printf("fault page 2 of group: %v → physical %#x\n", res, uint64(pa))
	fmt.Printf("  live reservations %d, reserved-but-unmapped pages %d\n",
		part.Live(), part.UnusedPages())

	// --- Later faults in the group skip the buddy allocator entirely. --
	for _, idx := range []int{0, 5, 7} {
		pa, res = part.HandleFault(base+ptemagnet.VirtAddr(idx)*ptemagnet.PageSize, alloc)
		fmt.Printf("fault page %d: %v → %#x (contiguous with the group)\n", idx, res, uint64(pa))
	}
	r, ok := part.Lookup(base)
	if !ok {
		log.Fatal("reservation vanished")
	}
	fmt.Printf("  occupancy mask %#08b (pages 0,2,5,7 mapped)\n", r.Mask())

	// --- Filling the group deletes its PaRT entry (§4.2). --------------
	for _, idx := range []int{1, 3, 4, 6} {
		part.HandleFault(base+ptemagnet.VirtAddr(idx)*ptemagnet.PageSize, alloc)
	}
	fmt.Printf("group full: live reservations %d (entry deleted)\n\n", part.Live())

	// --- free() of a partially used group returns pages to it. ---------
	g2 := base + ptemagnet.GroupBytes
	paG2, _ := part.HandleFault(g2, alloc)
	paG2b, _ := part.HandleFault(g2+ptemagnet.PageSize, alloc)
	handled := part.NotifyFree(g2+ptemagnet.PageSize, paG2b, func(pa ptemagnet.PhysAddr) {
		mem.FreeBlock(pa)
	})
	fmt.Printf("free page 1 of a live group: handled by PaRT = %v, unused back to %d\n",
		handled, part.UnusedPages())
	// Freeing the last mapped page dissolves the reservation and returns
	// all eight pages to the buddy allocator.
	freed := 0
	part.NotifyFree(g2, paG2, func(pa ptemagnet.PhysAddr) { mem.FreeBlock(pa); freed++ })
	fmt.Printf("free last mapped page: %d pages returned to the buddy allocator\n\n", freed)

	// --- The §6.2 adversary and §4.3 reclamation. ----------------------
	// Touch one page per group across many groups: 7 of 8 reserved pages
	// stay unused.
	for g := 0; g < 1000; g++ {
		va := ptemagnet.VirtAddr(0x4000_0000) + ptemagnet.VirtAddr(g)*ptemagnet.GroupBytes
		if _, res := part.HandleFault(va, alloc); res == ptemagnet.FaultNoMemory {
			log.Fatal("out of memory")
		}
	}
	fmt.Printf("sparse adversary: %d live reservations, %d unused pages (7 per group)\n",
		part.Live(), part.UnusedPages())

	// Memory pressure: the reclaim daemon destroys reservations until the
	// gauge drops below a target, releasing only the unmapped pages.
	target := 7 * 100 // keep at most 100 groups' worth of waste
	released := 0
	infos := part.Reclaim(
		func(pa ptemagnet.PhysAddr) { mem.FreeBlock(pa); released++ },
		func() bool { return part.UnusedPages() <= target },
	)
	fmt.Printf("reclaim under pressure: destroyed %d reservations, released %d pages\n",
		len(infos), released)
	fmt.Printf("after reclaim: %d live, %d unused pages\n\n", part.Live(), part.UnusedPages())

	s := part.Snapshot()
	fmt.Printf("lifetime stats: created %d, fully mapped %d, fully freed %d, reclaimed %d, fault hits %d\n",
		s.Created, s.FullyMapped, s.FullyFreed, s.Reclaimed, s.Hits)
}
