// Package hostos simulates the host (hypervisor) kernel's memory
// management, the KVM arrangement the paper describes in §3.1: a virtual
// machine is just a process, and the VM's guest-physical address space is
// one contiguous virtual region of that process. Host-physical frames are
// allocated lazily, page by page, on the first access to each guest-physical
// page — which is why fragmentation in guest-physical memory carries over
// into the host page table: the host PT is indexed by guest-physical
// addresses, so scattered guest-physical pages occupy scattered host PTEs
// regardless of where the host places the backing frames.
package hostos

import (
	"errors"
	"fmt"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/physmem"
)

// ErrOutOfMemory reports host-physical exhaustion. Allocation paths return
// the richer *OOMError, which matches this sentinel under errors.Is.
var ErrOutOfMemory = errors.New("hostos: out of host-physical memory")

// OOMError reports which VM exhausted host-physical memory and how many
// pages its allocation needed. It matches ErrOutOfMemory under errors.Is,
// so existing sentinel checks keep working.
type OOMError struct {
	// VM is the id of the VM whose fault could not be served.
	VM int
	// NeedPages is the size of the failed allocation in pages.
	NeedPages uint64
	// Err is the underlying cause when the exhaustion was not organic: an
	// injected fault (faults.ErrInjected) or a page-table node allocation
	// failure (pagetable.ErrNoMemory). Nil for a plain out-of-frames OOM.
	Err error
	// Balloon summarises the pressure-relief attempt that preceded this
	// error (victims tried, pages reclaimed), so an exhausted-host failure
	// is diagnosable from its message alone. Empty when no reliever was
	// installed.
	Balloon string
}

// Error describes the exhaustion.
func (e *OOMError) Error() string {
	msg := fmt.Sprintf("hostos: out of host-physical memory (vm %d needed %d page(s))", e.VM, e.NeedPages)
	if e.Balloon != "" {
		msg += fmt.Sprintf(" [balloon: %s]", e.Balloon)
	}
	if e.Err != nil {
		msg += fmt.Sprintf(": %v", e.Err)
	}
	return msg
}

// Is reports sentinel equivalence with ErrOutOfMemory.
func (e *OOMError) Is(target error) bool { return target == ErrOutOfMemory }

// Unwrap exposes the cause, keeping wrapped markers (e.g.
// faults.ErrInjected) errors.Is-reachable through the OOM layer.
func (e *OOMError) Unwrap() error { return e.Err }

// OOMInjector injects host-level allocation failures for deterministic
// fault testing (faults.Plan implements it). InjectHostOOM is consulted
// once per fault-time frame allocation; a non-nil return fails the
// allocation with that cause wrapped in an *OOMError. When a pressure
// reliever absorbs the injected failure instead, NoteAbsorbedHostOOM is
// called, so the injector can tell degradation from recovery by retry.
type OOMInjector interface {
	InjectHostOOM() error
	NoteAbsorbedHostOOM()
}

// DirtyLogInjector forces dirty-log overflows for deterministic fault
// testing (faults.Plan implements it). ForceDirtyLogOverflow is consulted
// once per logged clear→set transition; returning true drops the entry
// and latches the overflow flag, as if the buffer had filled.
type DirtyLogInjector interface {
	ForceDirtyLogOverflow() bool
}

// PressureReliever frees host frames under allocation pressure
// (balloon.Controller implements it). RelieveFor is called when an
// allocation on behalf of VM vm cannot find need free frames; it returns
// a human-readable summary of the attempt (victims tried, pages
// reclaimed) and whether at least need frames are now free. The failed
// allocation is retried exactly once after a relief attempt, so OOMError
// surfaces only when ballooning genuinely cannot satisfy the request.
type PressureReliever interface {
	RelieveFor(vm int, need uint64) (summary string, ok bool)
}

// Kernel is the host kernel, owner of host-physical memory.
type Kernel struct {
	mem *physmem.Memory
	vms []*VM
	// nextID is monotonic across VM teardown, so ids never repeat within
	// one host's lifetime (frame attribution of a destroyed VM can never
	// be confused with a later tenant's).
	nextID int
	// oomInject, when non-nil, is consulted before each fault-time frame
	// allocation (fault injection; nil on the production path).
	oomInject OOMInjector
	// reliever, when non-nil, turns allocation-time OOM into a bounded
	// balloon-then-retry path (nil on the zero-pressure path).
	reliever PressureReliever
}

// SetOOMInjector installs h (nil removes it); every subsequent
// HandleFault consults it before allocating.
func (k *Kernel) SetOOMInjector(h OOMInjector) { k.oomInject = h }

// SetPressureReliever installs r (nil removes it); every subsequent
// failed frame allocation attempts relief through it once before
// surfacing OOMError.
func (k *Kernel) SetPressureReliever(r PressureReliever) { k.reliever = r }

// NewKernel boots a host kernel managing memBytes of host-physical memory.
func NewKernel(memBytes uint64) *Kernel {
	return &Kernel{mem: physmem.New(memBytes)}
}

// Memory exposes host-physical memory for inspection.
func (k *Kernel) Memory() *physmem.Memory { return k.mem }

// VMs returns the live VMs in creation order.
func (k *Kernel) VMs() []*VM { return k.vms }

// VM is one virtual machine: a host process whose virtual address space is
// the guest-physical address space.
type VM struct {
	kernel *Kernel
	id     int
	// pt is the host page table: guest-physical → host-physical.
	pt            *pagetable.Table
	guestMemBytes uint64
	alive         bool
	// dlog, when non-nil, is the PML-style dirty-page log live migration
	// uses to track writes between pre-copy rounds.
	dlog *dirtyLog
	// dlogInject, when non-nil, can force dirty-log overflows (fault
	// injection; nil on the production path).
	dlogInject DirtyLogInjector
	// invalidateGPA, when non-nil, is Unback's nested-TLB shootdown.
	invalidateGPA func(gpa arch.PhysAddr)
}

// SetDirtyLogInjector installs h (nil removes it); every subsequent
// logged dirty transition consults it.
func (vm *VM) SetDirtyLogInjector(h DirtyLogInjector) { vm.dlogInject = h }

// SetInvalidateGPA installs the nested-TLB shootdown of the vCPUs that run
// the VM (nil removes it); Unback calls it for every page it unmaps.
func (vm *VM) SetInvalidateGPA(f func(gpa arch.PhysAddr)) { vm.invalidateGPA = f }

// CreateVM registers a VM with the given guest-physical memory size. The
// guest-physical space [0, guestMemBytes) is the VM process's eagerly
// created virtual region; host frames arrive on demand.
func (k *Kernel) CreateVM(guestMemBytes uint64) (*VM, error) {
	return k.CreateVMWithLevels(guestMemBytes, 4)
}

// CreateVMWithLevels is CreateVM with a selectable host page-table depth
// (4-level EPT, or the 5-level EPT that accompanies LA57).
func (k *Kernel) CreateVMWithLevels(guestMemBytes uint64, levels int) (*VM, error) {
	if err := physmem.CheckSize(guestMemBytes); err != nil {
		return nil, fmt.Errorf("hostos: bad guest memory: %w", err)
	}
	id := k.nextID + 1
	pt, err := pagetable.NewWithLevels(k.mem, levels)
	if err != nil {
		return nil, err
	}
	k.nextID = id
	vm := &VM{kernel: k, id: id, pt: pt, guestMemBytes: guestMemBytes, alive: true}
	k.vms = append(k.vms, vm)
	return vm, nil
}

// DestroyVM tears the VM down: every mapped host frame and every host
// page-table node goes back to the host buddy allocator, and the VM leaves
// the kernel's VM list. Destroying an already-destroyed VM is a no-op.
// Frame returns happen in ascending guest-physical order followed by the
// page-table nodes in ascending frame order, so teardown is deterministic
// and buddy coalescing sees the same sequence on every run.
func (k *Kernel) DestroyVM(vm *VM) {
	if !vm.alive || vm.kernel != k {
		return
	}
	vm.alive = false
	vm.pt.ForEachMapped(func(_ arch.VirtAddr, hpa arch.PhysAddr, _ pagetable.Flags) bool {
		k.mem.FreeBlock(hpa)
		return true
	})
	vm.pt.Destroy()
	for i, v := range k.vms {
		if v == vm {
			k.vms = append(k.vms[:i], k.vms[i+1:]...)
			break
		}
	}
}

// ID returns the VM's host process id.
func (vm *VM) ID() int { return vm.id }

// Alive reports whether the VM has not been destroyed.
func (vm *VM) Alive() bool { return vm.alive }

// PageTable exposes the host page table of this VM.
func (vm *VM) PageTable() *pagetable.Table { return vm.pt }

// GuestMemBytes returns the guest-physical memory size.
func (vm *VM) GuestMemBytes() uint64 { return vm.guestMemBytes }

// Translate maps a guest-physical address to host-physical, if mapped.
func (vm *VM) Translate(gpa arch.PhysAddr) (arch.PhysAddr, bool) {
	hpa, _, ok := vm.pt.Translate(arch.VirtAddr(gpa))
	return hpa, ok
}

// HandleFault resolves a host page fault for gpa: allocates one
// host-physical frame through the default buddy path and maps it. It is the
// hypervisor-side analogue of the guest's default allocator — the host runs
// stock allocation; PTEMagnet changes only the guest (§4). A page that is
// already backed is left as it is.
func (vm *VM) HandleFault(gpa arch.PhysAddr) error {
	return vm.HandleFaultAt(gpa, pagetable.Stop{})
}

// HandleFaultAt is HandleFault for the EPT violation a walk of gpa has
// just taken, where stop is where that walk ended in the host table. While
// stop is current, the backed-page check reads the one entry the walk
// ended on and the map descends from there; a stale stop makes it
// HandleFault.
func (vm *VM) HandleFaultAt(gpa arch.PhysAddr, stop pagetable.Stop) error {
	if uint64(gpa) >= vm.guestMemBytes {
		return fmt.Errorf("hostos: guest-physical address %#x beyond VM memory %d", uint64(gpa), vm.guestMemBytes)
	}
	page := arch.VirtAddr(gpa).PageBase()
	if _, _, ok := vm.pt.TranslateAt(stop, page); ok {
		return nil
	}
	k := vm.kernel
	if k.oomInject != nil {
		if cause := k.oomInject.InjectHostOOM(); cause != nil {
			if k.reliever == nil {
				return &OOMError{VM: vm.id, NeedPages: 1, Err: cause}
			}
			// With a reliever armed, an injected allocation failure takes
			// the same balloon-then-retry path as an organic one: relieve,
			// then fall through to the (single) re-attempted allocation.
			summary, ok := k.reliever.RelieveFor(vm.id, 1)
			if !ok {
				return &OOMError{VM: vm.id, NeedPages: 1, Err: cause, Balloon: summary}
			}
			k.oomInject.NoteAbsorbedHostOOM()
		}
	}
	return vm.backPage(page, stop)
}

// backPage allocates one host frame and maps it at page, descending from
// stop (pagetable.Table.MapAt), and takes the reliever's balloon-then-retry
// path when either the frame or a page-table node allocation fails. A
// failed mapping frees its frame.
func (vm *VM) backPage(page arch.VirtAddr, stop pagetable.Stop) error {
	k := vm.kernel
	var summary string
	hpa, ok := k.mem.AllocFrame(physmem.KindUser)
	if !ok && k.reliever != nil {
		summary, _ = k.reliever.RelieveFor(vm.id, 1)
		hpa, ok = k.mem.AllocFrame(physmem.KindUser)
	}
	if !ok {
		return &OOMError{VM: vm.id, NeedPages: 1, Balloon: summary}
	}
	// Relief unbacks pages, so a stop it outdated leaves MapAt to
	// descend from the root.
	err := vm.pt.MapAt(stop, page, hpa, pagetable.FlagWritable)
	if err != nil && errors.Is(err, pagetable.ErrNoMemory) && k.reliever != nil {
		// Node-allocation exhaustion gets one relief-and-retry too; Map
		// leaves a consistent tree on ErrNoMemory, so re-walking it from
		// the root only allocates the nodes still missing.
		var relieved bool
		summary, relieved = k.reliever.RelieveFor(vm.id, 1)
		if relieved {
			err = vm.pt.Map(page, hpa, pagetable.FlagWritable)
		}
	}
	if err != nil {
		k.mem.FreeBlock(hpa)
		// Node-allocation exhaustion is host OOM too: wrap it so callers
		// see one taxonomy root instead of a bare pagetable error.
		if errors.Is(err, pagetable.ErrNoMemory) {
			return &OOMError{VM: vm.id, NeedPages: 1, Err: err, Balloon: summary}
		}
		return err
	}
	return nil
}

// MappedGuestPages returns the number of guest-physical pages with host
// backing.
func (vm *VM) MappedGuestPages() uint64 { return vm.pt.MappedPages() }

// Mapped reports whether the guest-physical page containing gpa has host
// backing.
func (vm *VM) Mapped(gpa arch.PhysAddr) bool {
	_, _, ok := vm.pt.Translate(arch.VirtAddr(gpa).PageBase())
	return ok
}

// DefaultDirtyLogEntries is the dirty-log capacity when EnableDirtyLogging
// is given zero: one page-table node's worth of entries, matching the
// 512-entry in-memory buffer of Intel Page Modification Logging.
const DefaultDirtyLogEntries = arch.PTEntriesPerNode

// dirtyLog is the PML-style write-tracking state of one VM: a bounded
// buffer of guest-physical page addresses whose EPT dirty bit transitioned
// clear→set since the last drain. When the buffer fills, further
// transitions still set dirty bits but are no longer buffered; the next
// drain falls back to a full EPT rescan — exactly PML's overflow VM-exit
// semantics, priced at a table walk instead of a buffer read.
type dirtyLog struct {
	capacity int
	entries  []arch.PhysAddr
	// overflowed latches "buffer filled since last drain".
	overflowed bool
	// logged counts clear→set transitions observed (buffered or not).
	logged uint64
	// overflows counts drains that required a full rescan.
	overflows uint64
}

// EnableDirtyLogging starts write tracking over the VM's host page table
// (EPT). capacity bounds the log buffer; zero selects
// DefaultDirtyLogEntries. Any dirty bits left over from a previous tracking
// session are cleared so the log starts from a clean slate. Enabling while
// already enabled resets the log.
func (vm *VM) EnableDirtyLogging(capacity int) {
	if capacity <= 0 {
		capacity = DefaultDirtyLogEntries
	}
	vm.clearAllDirty()
	vm.dlog = &dirtyLog{capacity: capacity}
}

// DisableDirtyLogging stops write tracking and discards the log. Dirty bits
// already set in the page table are cleared.
func (vm *VM) DisableDirtyLogging() {
	vm.dlog = nil
	vm.clearAllDirty()
}

func (vm *VM) clearAllDirty() {
	var dirty []arch.PhysAddr
	vm.pt.ForEachDirty(func(va arch.VirtAddr) bool {
		dirty = append(dirty, arch.PhysAddr(va))
		return true
	})
	for _, gpa := range dirty {
		vm.pt.ClearDirty(arch.VirtAddr(gpa))
	}
}

// DirtyLogging reports whether write tracking is enabled. The machine's
// execution loop checks this before paying for MarkDirty on every write.
func (vm *VM) DirtyLogging() bool { return vm.dlog != nil }

// DirtyLogged returns the number of clear→set dirty transitions observed
// since logging was enabled (including transitions dropped on overflow).
func (vm *VM) DirtyLogged() uint64 {
	if vm.dlog == nil {
		return 0
	}
	return vm.dlog.logged
}

// DirtyLogOverflows returns the number of drains that fell back to a full
// EPT rescan because the buffer had overflowed.
func (vm *VM) DirtyLogOverflows() uint64 {
	if vm.dlog == nil {
		return 0
	}
	return vm.dlog.overflows
}

// MarkDirty records a write to the guest-physical page containing gpa: the
// EPT leaf entry's dirty bit is set, and on a clear→set transition the page
// is appended to the dirty log (or, if the buffer is full, the overflow
// latch is set). A no-op unless dirty logging is enabled and the page has
// host backing. Like hardware PML, this costs the guest nothing — the page
// walker writes the log entry on its own.
func (vm *VM) MarkDirty(gpa arch.PhysAddr) {
	d := vm.dlog
	if d == nil {
		return
	}
	if !vm.pt.MarkDirty(arch.VirtAddr(gpa).PageBase()) {
		return
	}
	d.logged++
	if vm.dlogInject != nil && vm.dlogInject.ForceDirtyLogOverflow() {
		d.overflowed = true
		return
	}
	if len(d.entries) < d.capacity {
		d.entries = append(d.entries, gpa.PageBase())
		return
	}
	d.overflowed = true
}

// DrainDirtyLog returns the guest-physical pages dirtied since the last
// drain and resets the log. If the buffer overflowed, the pages come from a
// full EPT rescan in ascending guest-physical order and rescan is true;
// otherwise they come from the buffer in first-write order. Either order is
// deterministic. All reported pages have their dirty bits cleared, so the
// next write to any of them logs again.
func (vm *VM) DrainDirtyLog() (pages []arch.PhysAddr, rescan bool) {
	d := vm.dlog
	if d == nil {
		return nil, false
	}
	if d.overflowed {
		vm.pt.ForEachDirty(func(va arch.VirtAddr) bool {
			pages = append(pages, arch.PhysAddr(va))
			return true
		})
		rescan = true
		d.overflows++
	} else {
		pages = append(pages, d.entries...)
	}
	for _, gpa := range pages {
		vm.pt.ClearDirty(arch.VirtAddr(gpa))
	}
	d.entries = d.entries[:0]
	d.overflowed = false
	return pages, rescan
}

// MapMigratedPage gives the guest-physical page containing gpa host backing
// during a live-migration copy: one frame is allocated through the stock
// buddy path — the destination host re-allocates the image frame by frame,
// and whether the guest's PTEs stay contiguous afterwards depends only on
// the guest-physical layout the guest brings with it (§2: the host PT is
// indexed by guest-physical addresses). Unlike HandleFault it is no EPT
// violation: no walk takes it, so the walker's host-fault count never
// sees it. Copying onto an already-backed page (a re-dirtied page shipped
// again) rewrites contents, not the mapping, so it is a mapping no-op
// here.
func (vm *VM) MapMigratedPage(gpa arch.PhysAddr) error {
	if uint64(gpa) >= vm.guestMemBytes {
		return fmt.Errorf("hostos: migrated guest-physical address %#x beyond VM memory %d", uint64(gpa), vm.guestMemBytes)
	}
	page := arch.VirtAddr(gpa).PageBase()
	if _, _, ok := vm.pt.Translate(page); ok {
		return nil
	}
	return vm.backPage(page, pagetable.Stop{})
}

// Unback drops the host backing of the guest-physical page containing
// gpa: the EPT mapping is removed, its cached gPA→hPA translation is shot
// down, and the host frame returns to the host buddy allocator, where it
// can coalesce with its buddies. It reports whether a frame was actually
// freed (false when the page never had host backing). The balloon
// controller calls it for every guest-ballooned page; the next guest
// access to the page re-faults and re-allocates lazily, exactly like
// first touch.
func (vm *VM) Unback(gpa arch.PhysAddr) bool {
	page := arch.VirtAddr(gpa).PageBase()
	hpa, _, ok := vm.pt.Unmap(page)
	if !ok {
		return false
	}
	if vm.invalidateGPA != nil {
		vm.invalidateGPA(gpa)
	}
	vm.kernel.mem.FreeBlock(hpa)
	return true
}
