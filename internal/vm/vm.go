// Package vm assembles the full simulated stack of the paper's evaluation
// platform (§5): a host machine with a cache hierarchy, one QEMU/KVM-style
// virtual machine, a guest kernel with a selectable allocator policy, and a
// set of colocated workloads pinned to vCPUs.
//
// The machine interleaves the workloads' memory accesses round-robin in
// small quanta — the asynchronous page-fault interleaving that fragments
// the guest buddy allocator under colocation (§2.4). Every access runs the
// hardware pipeline: main TLB, nested 2D page walk through the simulated
// caches, guest page faults into the kernel, host faults into the
// hypervisor. Cycle accounting splits into work, data-access, translation,
// and fault-handling components so the paper's per-metric deltas can be
// reported.
package vm

import (
	"context"
	"errors"
	"fmt"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/balloon"
	"ptemagnet/internal/cache"
	"ptemagnet/internal/core"
	"ptemagnet/internal/faults"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/physmem"
	"ptemagnet/internal/workload"
)

// Kernel-software event prices, in cycles: the costs the cache simulator
// cannot time. They follow the shape of Linux fault costs: the trap +
// mapping overhead and the page-zeroing memset dominate; the allocator call
// itself is small — which is why the paper's §6.4 microbenchmark sees
// PTEMagnet's fewer buddy calls as only a slight win.
const (
	// workCyclesPerAccess is the non-memory compute per access.
	workCyclesPerAccess = 7
	// trapCycles is the base cost of any page fault (trap, VMA lookup,
	// return).
	trapCycles = 1000
	// zeroPageCycles clears a freshly mapped anonymous page (per page,
	// identical in both policies).
	zeroPageCycles = 1200
	// buddyPageCycles is one order-0 buddy allocator call.
	buddyPageCycles = 120
	// buddyGroupCycles is one order-3 (eight-page) buddy call plus PaRT
	// insertion.
	buddyGroupCycles = 180
	// partHitCycles is a PaRT lookup serving a fault from a reservation.
	partHitCycles = 60
	// cowCopyCycles copies a page on a COW break.
	cowCopyCycles = 2400
)

// faultCost prices a resolved fault by kind.
func faultCost(kind guestos.FaultKind) uint64 {
	switch kind {
	case guestos.FaultAlreadyMapped:
		return trapCycles / 2
	case guestos.FaultDefault:
		return trapCycles + buddyPageCycles + zeroPageCycles
	case guestos.FaultMagnetNew:
		return trapCycles + buddyGroupCycles + zeroPageCycles
	case guestos.FaultMagnetHit:
		return trapCycles + partHitCycles + zeroPageCycles
	case guestos.FaultParentClaim:
		return trapCycles + partHitCycles + zeroPageCycles
	case guestos.FaultCOW:
		return trapCycles + buddyPageCycles + cowCopyCycles
	case guestos.FaultCAHit:
		// A targeted AllocAt costs about as much as a stock buddy call.
		return trapCycles + buddyPageCycles + zeroPageCycles
	case guestos.FaultTHP:
		// One trap and one order-9 buddy call, but all 512 constituent
		// pages (one full PT node's worth) must be zeroed up front.
		return trapCycles + buddyGroupCycles + arch.PTEntriesPerNode*zeroPageCycles
	default:
		return trapCycles
	}
}

// GuestConfig describes one tenant VM: its guest-physical memory size and
// the guest kernel's allocator policy. Everything hardware-shaped (caches,
// walker geometry, vCPUs) lives in HostConfig — tenants share the
// host's hardware, they only differ in size and software policy.
type GuestConfig struct {
	// MemBytes sizes the guest-physical memory. Must not exceed the host's
	// memory; the *sum* across guests may (host frames are allocated
	// lazily, so overcommit is the normal cloud configuration).
	MemBytes uint64
	// Policy selects the guest allocator; Magnet configures PTEMagnet.
	Policy guestos.AllocPolicy
	Magnet core.Config
	// EnableThresholdBytes gates PTEMagnet per process (§4.4).
	EnableThresholdBytes uint64
	// ReclaimWatermark forwards to the guest kernel (§4.3).
	ReclaimWatermark float64
	// Seed drives this guest kernel's randomness.
	Seed int64
}

// HostConfig describes a multi-tenant simulated platform: the shared host
// hardware plus one GuestConfig per VM packed onto it.
type HostConfig struct {
	// HostMemBytes sizes host-physical memory.
	HostMemBytes uint64
	// NumCPUs is the vCPU count; tasks are pinned round-robin across it.
	// Zero → 8. It is also the hierarchy's CPU count: it replaces
	// Cache.NumCPUs.
	NumCPUs int
	// Cache overrides the hierarchy's levels; a Cache whose NumCPUs is
	// zero selects cache.DefaultConfig.
	Cache cache.Config
	// Walker overrides translation machinery (zero → nested.DefaultConfig).
	// Every guest gets its own walker (private TLBs and walk caches) built
	// from this one geometry, sharing the host's data caches.
	Walker nested.Config
	// Quantum is the number of accesses one task executes per scheduling
	// turn (small → aggressive fault interleaving). Zero → 8.
	Quantum int
	// PTLevels selects the page-table depth for both the guest and the
	// host dimension: 4 (default) or 5 (LA57 + 5-level EPT, §2.5).
	PTLevels int
	// Balloon arms the host's overcommit pressure controller. The zero
	// value leaves the machine balloon-free with the allocation hot path
	// untouched; set Enabled for hosts whose guests' combined memory may
	// exceed HostMemBytes.
	Balloon balloon.Config
	// Guests lists the VMs to boot, in VM-id order.
	Guests []GuestConfig
}

// Validate checks the host config and every guest config for explicitly
// invalid values. The zero value of every optional field is a documented
// default (filled in by NewHost) and always passes; Validate rejects only
// contradictions: unset memory sizes, a guest larger than its host,
// negative counts, unknown page-table depths, out-of-range watermarks, a
// cache level or walker structure that cache.CheckGeometry rejects (when
// Cache or Walker is set at all), and an invalid Magnet configuration
// (when one is set at all). A failure names its field by path, e.g.
// "Guests[0].MemBytes" or "Cache.LLC.SizeBytes".
func (c HostConfig) Validate() error {
	if err := CheckMemBytes("HostMemBytes", c.HostMemBytes); err != nil {
		return err
	}
	if c.NumCPUs < 0 {
		return &ConfigError{Field: "NumCPUs", Value: c.NumCPUs, Reason: "must be positive (zero selects the default)"}
	}
	if c.Quantum < 0 {
		return &ConfigError{Field: "Quantum", Value: c.Quantum, Reason: "must be positive (zero selects the default)"}
	}
	if c.PTLevels != 0 && c.PTLevels != 4 && c.PTLevels != 5 {
		return &ConfigError{Field: "PTLevels", Value: c.PTLevels, Reason: "must be 4 or 5 (zero selects the default)"}
	}
	if err := c.validateGeometry(); err != nil {
		return err
	}
	if len(c.Guests) == 0 {
		return &ConfigError{Field: "Guests", Value: len(c.Guests), Reason: "at least one guest is required"}
	}
	for i, g := range c.Guests {
		if err := g.validate(c.HostMemBytes, fmt.Sprintf("Guests[%d].", i)); err != nil {
			return err
		}
	}
	return nil
}

// validateGeometry checks an explicit Cache (non-zero NumCPUs) and an
// explicit Walker (non-zero TLB.L1.Entries) against the geometry rule of
// cache.Sets, which stores every one of their levels.
func (c HostConfig) validateGeometry() error {
	type array struct {
		field string
		err   error
	}
	var arrays []array
	if cc := c.Cache; cc.NumCPUs != 0 {
		arrays = append(arrays,
			array{"Cache.L1.", cc.L1.Check()},
			array{"Cache.L2.", cc.L2.Check()},
			array{"Cache.LLC.", cc.LLC.Check()})
	}
	if w := c.Walker; w.TLB.L1.Entries != 0 {
		arrays = append(arrays,
			array{"Walker.TLB.L1.", cache.CheckGeometry(w.TLB.L1.Entries, w.TLB.L1.Ways)},
			array{"Walker.TLB.L2.", cache.CheckGeometry(w.TLB.L2.Entries, w.TLB.L2.Ways)},
			array{"Walker.NTLB.", cache.CheckGeometry(w.NTLB.Entries, w.NTLB.Ways)},
			array{"Walker.GuestPWC.", cache.CheckGeometry(w.GuestPWC.Entries, w.GuestPWC.Ways)},
			array{"Walker.HostPWC.", cache.CheckGeometry(w.HostPWC.Entries, w.HostPWC.Ways)})
	}
	for _, a := range arrays {
		var g *cache.GeometryError
		if errors.As(a.err, &g) {
			return &ConfigError{Field: a.field + g.Field, Value: g.Value, Reason: g.Reason}
		}
	}
	return nil
}

// validate checks one guest config against the host memory size.
func (g GuestConfig) validate(hostMemBytes uint64, prefix string) error {
	if err := CheckMemBytes(prefix+"MemBytes", g.MemBytes); err != nil {
		return err
	}
	if g.MemBytes > hostMemBytes {
		return &ConfigError{Field: prefix + "MemBytes", Value: g.MemBytes, Reason: "guest memory cannot exceed host memory"}
	}
	if g.ReclaimWatermark < 0 || g.ReclaimWatermark > 1 {
		return &ConfigError{Field: prefix + "ReclaimWatermark", Value: g.ReclaimWatermark, Reason: "must be in [0, 1]"}
	}
	if g.Magnet.GroupPages != 0 {
		if err := g.Magnet.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CheckMemBytes rejects a memory size physmem cannot model
// (physmem.CheckSize) with a *ConfigError naming field.
func CheckMemBytes(field string, bytes uint64) error {
	var se *physmem.SizeError
	if errors.As(physmem.CheckSize(bytes), &se) {
		return &ConfigError{Field: field, Value: bytes, Reason: se.Reason}
	}
	return nil
}

// ConfigError is the typed validation failure returned by HostConfig.Validate.
// It aliases the core package's type so errors.As matches failures from
// either layer (a bad Magnet sub-config surfaces as the same type).
type ConfigError = core.ConfigError

// Role classifies tasks: primaries are measured; co-runners only generate
// allocator pressure and stop when the primaries finish.
type Role uint8

const (
	// RolePrimary marks a measured benchmark.
	RolePrimary Role = iota
	// RoleCorunner marks a background co-runner.
	RoleCorunner
)

// Task is a scheduled workload bound to a guest process and vCPU.
type Task struct {
	prog  workload.Program
	role  Role
	guest *Guest
	// proc is also the program's workload.Env.
	proc  *guestos.Process
	cpu   int
	index int
	done  bool

	// Cycle accounting, split by component: the DataCycles,
	// TranslationCycles, FaultCycles, Accesses and DataServed fields.
	// TaskReport derives the work cycles and the total from them.
	taskCounters

	// initSnapshot captures the counters at the task's init boundary.
	initSnapshot taskCounters
	initSeen     bool
}

// taskCounters is what a task's run accumulates. Work cycles and the
// cycle total are not counted: they follow from these (TaskReport).
type taskCounters struct {
	DataCycles        uint64
	TranslationCycles uint64
	FaultCycles       uint64
	Accesses          uint64
	DataServed        [cache.NumLevels]uint64
}

// workCycles is the non-memory compute of c's accesses.
func (c taskCounters) workCycles() uint64 { return workCyclesPerAccess * c.Accesses }

// cycles is c's total: work, data, translation and fault cycles.
func (c taskCounters) cycles() uint64 {
	return c.workCycles() + c.DataCycles + c.TranslationCycles + c.FaultCycles
}

// Name returns the underlying program name.
func (t *Task) Name() string { return t.prog.Name() }

// Role returns the task's scheduling role.
func (t *Task) Role() Role { return t.role }

// Done reports whether the task's program has finished.
func (t *Task) Done() bool { return t.done }

// Process returns the guest process executing the task.
func (t *Task) Process() *guestos.Process { return t.proc }

// GuestIndex returns the index of the guest the task runs in.
func (t *Task) GuestIndex() int { return t.guest.index }

// AccessRecord is one executed memory access as delivered to a Tracer.
// Seq is the machine-global access sequence number (1-based).
type AccessRecord struct {
	Task              int
	VA                arch.VirtAddr
	Write             bool
	TLBHit            bool
	TranslationCycles uint64
	DataCycles        uint64
	Served            uint8
	Seq               uint64
}

// Tracer receives the machine's event stream (see internal/trace for a
// binary recorder). Methods are called synchronously on the simulation
// thread; implementations should be cheap.
//
// Accesses arrive in batches in execution order. Faults interleave in stream
// order: before a Fault with sequence number s is delivered, every access
// record with Seq < s has already been delivered (the machine flushes the
// pending batch first).
type Tracer interface {
	// AccessBatch reports executed accesses in order. The slice is reused
	// between calls; implementations must copy anything they retain.
	AccessBatch(recs []AccessRecord)
	// Fault reports one resolved guest page fault.
	Fault(task int, va arch.VirtAddr, kind uint8, seq uint64)
}

// Guest is one tenant VM's software stack on the shared host: the VM as
// the host sees it, the guest kernel with its allocator policy, the VM's
// private translation machinery (TLBs, nested TLB, walk caches), and the
// tasks pinned to its vCPUs. Guests share the host's physical memory,
// buddy allocator and data-cache hierarchy through the enclosing Machine.
type Guest struct {
	m      *Machine
	index  int
	cfg    GuestConfig
	hostVM *hostos.VM
	kernel *guestos.Kernel
	walker *nested.Walker
	tasks  []*Task
	alive  bool

	// migratedOut marks the frozen placeholder a migrated guest leaves in
	// its source machine's slot: the real Guest moved on (taking kernel,
	// walker, and tasks with it), and the placeholder reports the frozen
	// stats below instead of touching the departed components.
	migratedOut bool
	frozen      GuestStats
	frozenVMID  int
}

// Index returns the guest's position in creation order (0-based, stable
// across teardown — dead guests keep their slot).
func (g *Guest) Index() int { return g.index }

// Kernel exposes the guest kernel.
func (g *Guest) Kernel() *guestos.Kernel { return g.kernel }

// HostVM exposes the VM as the host sees it.
func (g *Guest) HostVM() *hostos.VM { return g.hostVM }

// Walker exposes the guest's private nested walker.
func (g *Guest) Walker() *nested.Walker { return g.walker }

// Tasks returns the guest's tasks in creation order.
func (g *Guest) Tasks() []*Task { return g.tasks }

// Alive reports whether the guest has not been destroyed.
func (g *Guest) Alive() bool { return g.alive }

// Machine returns the machine currently hosting the guest, or nil while the
// guest is detached mid-migration.
func (g *Guest) Machine() *Machine { return g.m }

// Config returns the guest's configuration.
func (g *Guest) Config() GuestConfig { return g.cfg }

// Machine is the assembled platform: the shared host resources (host
// kernel + physical memory, data-cache hierarchy) and the N
// guest stacks multiplexed onto them by one global quantum scheduler.
type Machine struct {
	cfg    HostConfig
	host   *hostos.Kernel
	hier   *cache.Hierarchy
	guests []*Guest
	// tasks is the machine-global flat task list in creation order,
	// spanning every guest; Task.index is the position here.
	tasks []*Task

	totalAccesses uint64
	unusedSeries  metrics.Series
	tracer        Tracer

	// recBuf is the reused trace-record scratch; it holds at most one
	// quantum's records.
	recBuf []AccessRecord

	// Steady-window snapshot, taken when every primary reaches its init
	// boundary (the §3.3 measurement start).
	steadySnapTaken bool
	statsAtInit     Stats

	// faultPlan, when non-nil, is the armed fault-injection plan; new
	// guests booted mid-run inherit its hooks.
	faultPlan *faults.Plan

	// balloon, when non-nil, is the armed overcommit pressure controller;
	// it doubles as the host kernel's PressureReliever.
	balloon *balloon.Controller

	// corunnersStopped latches StopCorunnersAtPrimaryInit across
	// pause/resume boundaries (WithStopAtAccesses): once co-runners
	// stop at the primary-init boundary they stay stopped for the machine's
	// lifetime, so a paused-and-resumed run schedules exactly the quanta an
	// uninterrupted run would.
	corunnersStopped bool
}

// NewHost builds a multi-tenant machine: the shared host plus one guest
// stack per entry in cfg.Guests. Zero-valued optional fields select their
// documented defaults; explicitly invalid values are rejected with a
// *ConfigError (see HostConfig.Validate).
func NewHost(cfg HostConfig) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	return newMachine(cfg)
}

// newMachine builds from an already validated HostConfig.
func newMachine(cfg HostConfig) (*Machine, error) {
	if cfg.NumCPUs == 0 {
		cfg.NumCPUs = 8
	}
	if cfg.Cache.NumCPUs == 0 {
		cfg.Cache = cache.DefaultConfig(cfg.NumCPUs)
	}
	cfg.Cache.NumCPUs = cfg.NumCPUs
	if cfg.Walker.TLB.L1.Entries == 0 {
		cfg.Walker = nested.DefaultConfig()
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 8
	}
	if cfg.PTLevels == 0 {
		cfg.PTLevels = 4
	}
	m := &Machine{
		cfg:  cfg,
		host: hostos.NewKernel(cfg.HostMemBytes),
		hier: cache.NewHierarchy(cfg.Cache),
	}
	if cfg.Balloon.Enabled {
		m.balloon = balloon.New(m.host)
		m.host.SetPressureReliever(m.balloon)
	}
	for _, gc := range cfg.Guests {
		if _, err := m.addGuest(gc); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// addGuest boots one guest stack on the host (no validation).
func (m *Machine) addGuest(gc GuestConfig) (*Guest, error) {
	hostVM, err := m.host.CreateVMWithLevels(gc.MemBytes, m.cfg.PTLevels)
	if err != nil {
		return nil, err
	}
	kernel := guestos.NewKernel(guestos.Config{
		MemBytes:             gc.MemBytes,
		Policy:               gc.Policy,
		Magnet:               gc.Magnet,
		EnableThresholdBytes: gc.EnableThresholdBytes,
		ReclaimWatermark:     gc.ReclaimWatermark,
		Seed:                 gc.Seed,
		PTLevels:             m.cfg.PTLevels,
	})
	g := &Guest{
		m:      m,
		index:  len(m.guests),
		cfg:    gc,
		hostVM: hostVM,
		kernel: kernel,
		walker: nested.New(m.cfg.Walker, m.hier, hostVM),
		alive:  true,
	}
	// Guest kernel and host VM each shoot down their own mappings.
	kernel.SetTLB(g.walker)
	hostVM.SetInvalidateGPA(g.walker.InvalidateGPA)
	m.guests = append(m.guests, g)
	if m.balloon != nil {
		m.balloon.Attach(hostVM, kernel)
	}
	return g, nil
}

// AddGuest boots a new guest mid-lifetime — the "VM boots" half of a
// churn scenario. The guest starts with no tasks; add them with
// Guest.AddTask. The config is validated against the host.
func (m *Machine) AddGuest(gc GuestConfig) (*Guest, error) {
	if err := gc.validate(m.cfg.HostMemBytes, "Guests[new]."); err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	g, err := m.addGuest(gc)
	if err != nil {
		return nil, err
	}
	if m.faultPlan != nil {
		g.kernel.Memory().SetAllocHook(m.faultPlan)
		g.hostVM.SetDirtyLogInjector(m.faultPlan)
	}
	return g, nil
}

// InstallFaultPlan arms a deterministic fault-injection plan on the
// machine's choke points: every guest's buddy allocator, the host
// kernel's fault-time frame allocation, and every guest VM's dirty log.
// Install before running; guests booted later (churn) inherit the hooks.
// A nil plan is a no-op, leaving every hook unset so the zero-plan hot
// path is unchanged. One plan serves one machine — sharing a plan across
// machines interleaves their schedules.
func (m *Machine) InstallFaultPlan(p *faults.Plan) {
	if p == nil {
		return
	}
	m.faultPlan = p
	m.host.SetOOMInjector(p)
	for _, g := range m.guests {
		if !g.alive || g.migratedOut {
			continue
		}
		g.kernel.Memory().SetAllocHook(p)
		g.hostVM.SetDirtyLogInjector(p)
	}
}

// Balloon returns the armed overcommit pressure controller, or nil on a
// balloon-free machine.
func (m *Machine) Balloon() *balloon.Controller { return m.balloon }

// DestroyGuest tears a guest down mid-lifetime — the "VM dies" half of a
// churn scenario. Its tasks stop, its walker state is flushed (the cached
// gPA→hPA translations die with the host page table), and the host frees
// every host frame the VM held back to the shared buddy allocator. The
// guest keeps its slot in Guests() with frozen counters, so per-guest
// telemetry of a dead tenant remains reportable. Destroying a dead guest
// is a no-op.
func (m *Machine) DestroyGuest(g *Guest) {
	if g == nil || !g.alive || g.m != m {
		return
	}
	g.alive = false
	for _, t := range g.tasks {
		t.done = true
	}
	g.walker.InvalidateAll()
	if m.balloon != nil {
		m.balloon.Detach(g.hostVM)
	}
	m.host.DestroyVM(g.hostVM)
}

// Guests returns every guest ever booted, in creation order (including
// destroyed ones — check Alive).
func (m *Machine) Guests() []*Guest { return m.guests }

// Host exposes the host kernel.
func (m *Machine) Host() *hostos.Kernel { return m.host }

// Hierarchy exposes the shared cache hierarchy.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// UnusedSeries returns the sampled §6.2 gauge.
func (m *Machine) UnusedSeries() *metrics.Series { return &m.unusedSeries }

// SetTracer installs an event-stream recorder for subsequent RunWith calls
// (nil disables tracing).
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// AddTask schedules prog on the first guest (the only guest in a
// single-VM machine). Multi-tenant callers use Guest.AddTask.
func (m *Machine) AddTask(prog workload.Program, role Role) (*Task, error) {
	return m.guests[0].AddTask(prog, role)
}

// AddTask spawns a guest process for prog inside g and schedules it.
// Tasks are pinned to vCPUs round-robin — offset by the guest index, so
// colocated guests' first tasks land on different vCPUs — like the paper
// pinning application and co-runner threads to distinct cores.
func (g *Guest) AddTask(prog workload.Program, role Role) (*Task, error) {
	if !g.alive {
		return nil, fmt.Errorf("vm: guest %d is destroyed", g.index)
	}
	m := g.m
	proc, err := g.kernel.Spawn(prog.Name(), prog.FootprintBytes())
	if err != nil {
		return nil, err
	}
	t := &Task{
		prog:  prog,
		role:  role,
		guest: g,
		proc:  proc,
		cpu:   (g.index + len(g.tasks)) % m.cfg.NumCPUs,
		index: len(m.tasks),
	}
	if err := prog.Setup(proc); err != nil {
		return nil, err
	}
	g.tasks = append(g.tasks, t)
	m.tasks = append(m.tasks, t)
	return t, nil
}

// Tasks returns all scheduled tasks across every guest, in creation order.
func (m *Machine) Tasks() []*Task { return m.tasks }

// runConfig is the assembled form of the run options.
type runConfig struct {
	stopCorunnersAtPrimaryInit bool
	sampleEvery                uint64
	maxAccesses                uint64
	stopAtAccesses             uint64
	events                     []RunEvent
}

// RunOpt configures one machine run (RunWith) — the options vocabulary
// machine runs share with experiment runs (sim.RunOpt).
type RunOpt func(*runConfig)

// WithStopCorunnersAtInit kills co-runner tasks the moment every primary
// finishes initialization — the §3.3 Table 1 methodology (fragmentation
// is left behind; LLC contention is removed).
func WithStopCorunnersAtInit(stop bool) RunOpt {
	return func(c *runConfig) { c.stopCorunnersAtPrimaryInit = stop }
}

// WithSampleEvery samples the unused-reserved-pages gauge (§6.2) every n
// total accesses. Zero disables sampling.
func WithSampleEvery(n uint64) RunOpt {
	return func(c *runConfig) { c.sampleEvery = n }
}

// WithMaxAccesses aborts a runaway run (safety net). Zero → no limit.
func WithMaxAccesses(n uint64) RunOpt {
	return func(c *runConfig) { c.maxAccesses = n }
}

// WithStopAtAccesses pauses the run once the machine-global access count
// reaches n, checked between scheduler rounds like events. The run
// returns nil with primaries unfinished; a later run resumes from the
// exact scheduler state, and the combined execution is access-for-access
// identical to one uninterrupted run. The live migration engine
// interleaves pre-copy rounds with guest execution through this. Zero
// disables pausing.
func WithStopAtAccesses(n uint64) RunOpt {
	return func(c *runConfig) { c.stopAtAccesses = n }
}

// WithEvents appends mid-run actions that fire between scheduler rounds,
// in the given order, once each, when the machine-global access count
// reaches AtAccesses — the hook VM-churn scenarios use to boot and kill
// guests mid-run. Because events are keyed to the deterministic access
// count and run on the scheduler goroutine, a churn run is as
// reproducible as a static one.
func WithEvents(events ...RunEvent) RunOpt {
	return func(c *runConfig) { c.events = append(c.events, events...) }
}

// RunEvent is one scheduled mid-run action (see WithEvents).
type RunEvent struct {
	// AtAccesses is the machine-global access count at or after which the
	// event fires (checked between rounds).
	AtAccesses uint64
	// Do runs on the scheduler goroutine; returning an error aborts the
	// run.
	Do func(*Machine) error
}

// RunWith interleaves all tasks until every primary finishes, configured
// by options. Co-runners are stopped at the end (or at the primary-init
// boundary per WithStopCorunnersAtInit). The scheduler polls ctx between
// rounds (one quantum of every task), so a canceled run stops within a
// handful of accesses and returns the context's error — this is the
// cancellation point for every workload inner loop. Other errors indicate
// simulation bugs (workload accessing unmapped regions, guest OOM) or
// injected faults.
func (m *Machine) RunWith(ctx context.Context, opts ...RunOpt) error {
	var cfg runConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return m.runWith(ctx, cfg)
}

// runWith is the scheduler loop behind RunWith.
func (m *Machine) runWith(ctx context.Context, opts runConfig) error {
	if countPrimaries(m.tasks) == 0 {
		return fmt.Errorf("vm: no primary task")
	}
	var nextSample uint64
	var nextBalloon uint64
	nextEvent := 0
	// The round loop walks guests in creation order and, inside each
	// guest, its tasks in creation order — a fixed interleaving fully
	// determined by the configuration, never by host goroutine timing.
	// Primaries-left is recomputed each round (rather than decremented)
	// because events may add or destroy whole guests between rounds.
	for m.PendingPrimaries() > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("vm: run canceled: %w", err)
		}
		if opts.stopAtAccesses > 0 && m.totalAccesses >= opts.stopAtAccesses {
			return nil
		}
		for nextEvent < len(opts.events) && m.totalAccesses >= opts.events[nextEvent].AtAccesses {
			if err := opts.events[nextEvent].Do(m); err != nil {
				return fmt.Errorf("vm: run event %d: %w", nextEvent, err)
			}
			nextEvent++
		}
		progressed := false
		for _, g := range m.guests {
			if !g.alive {
				continue
			}
			for _, t := range g.tasks {
				if t.done {
					continue
				}
				if t.role == RoleCorunner && m.corunnersStopped {
					continue
				}
				if err := m.runQuantum(t); err != nil {
					return err
				}
				progressed = true
			}
		}
		if !progressed {
			return fmt.Errorf("vm: scheduler stalled with %d primaries left", m.PendingPrimaries())
		}
		if !m.steadySnapTaken && m.primariesInitDone() {
			m.steadySnapTaken = true
			m.statsAtInit = m.Snapshot()
			if opts.stopCorunnersAtPrimaryInit {
				m.corunnersStopped = true
			}
		}
		if opts.sampleEvery > 0 && m.totalAccesses >= nextSample {
			m.unusedSeries.Record(m.totalAccesses, int64(m.unusedReservedPages()))
			nextSample = m.totalAccesses + opts.sampleEvery
		}
		if m.balloon != nil && m.totalAccesses >= nextBalloon {
			// Working-set sampling and the watermark check are keyed to
			// the machine-global access count, the same deterministic
			// clock as run events and gauge sampling.
			m.balloon.Sample()
			m.balloon.Check()
			nextBalloon = m.totalAccesses + balloon.SampleEvery
		}
		if opts.maxAccesses > 0 && m.totalAccesses >= opts.maxAccesses {
			return fmt.Errorf("vm: exceeded access budget %d", opts.maxAccesses)
		}
	}
	if opts.sampleEvery > 0 {
		// Always close the series with the final state, so short runs
		// still report their peak.
		m.unusedSeries.Record(m.totalAccesses, int64(m.unusedReservedPages()))
	}
	return nil
}

// TotalAccesses returns the machine-global executed access count — the
// deterministic clock that run events, pauses, and migration rounds key on.
func (m *Machine) TotalAccesses() uint64 { return m.totalAccesses }

// PendingPrimaries returns how many primary tasks have not finished. A
// paused run (WithStopAtAccesses) left work behind iff this is nonzero.
func (m *Machine) PendingPrimaries() int {
	n := 0
	for _, t := range m.tasks {
		if t.role == RolePrimary && !t.done {
			n++
		}
	}
	return n
}

// HostConfig returns the machine's resolved host configuration.
func (m *Machine) HostConfig() HostConfig { return m.cfg }

func countPrimaries(tasks []*Task) int {
	n := 0
	for _, t := range tasks {
		if t.role == RolePrimary {
			n++
		}
	}
	return n
}

// unusedReservedPages sums the §6.2 gauge across live guests.
func (m *Machine) unusedReservedPages() int64 {
	var n int64
	for _, g := range m.guests {
		if g.alive {
			n += int64(g.kernel.UnusedReservedPages())
		}
	}
	return n
}

func (m *Machine) primariesInitDone() bool {
	for _, t := range m.tasks {
		if t.role == RolePrimary && !t.done && !t.prog.InitDone() {
			return false
		}
	}
	return true
}

// runQuantum executes up to one scheduling quantum of t. Each access the
// program's Step returns runs through the full pipeline — main TLB, nested
// 2D walk, cache hierarchy, guest fault handling — before Step is called
// again, so env calls inside Step see every earlier access executed and
// the init-boundary snapshot lands on the exact access that flips InitDone.
func (m *Machine) runQuantum(t *Task) error {
	var (
		prog   = t.prog
		proc   = t.proc
		walker = t.guest.walker
		hier   = m.hier
		tracer = m.tracer
		asid   = proc.ASID()
		gpt    = proc.PageTable()
		cpu    = t.cpu
		hostVM = t.guest.hostVM
		// dirtyLog is hoisted so the common (non-migrating) case pays one
		// branch per access, nothing more.
		dirtyLog = hostVM.DirtyLogging()
	)
	recs := m.recBuf[:0]
	var err error
quantum:
	for n := 0; n < m.cfg.Quantum; n++ {
		acc, done := prog.Step(proc)
		if done {
			t.done = true
			break
		}
		m.totalAccesses++
		t.Accesses++
		seq := m.totalAccesses
		var accTranslation, accData uint64
		var accServed cache.Level
		var accTLBHit bool
		for attempt := 0; ; attempt++ {
			// The TLB probe, then on a miss the 2D walk, which leaves
			// where a guest fault's walk stopped for the fault handler.
			out, hit := walker.TranslateFast(asid, acc.VA, acc.Write)
			if !hit {
				out = walker.TranslateSlow(cpu, asid, gpt, acc.VA, acc.Write)
			}
			t.TranslationCycles += out.Cycles
			accTranslation += out.Cycles
			if out.Ok {
				lv, lat := hier.Access(cpu, out.HPA)
				t.DataCycles += lat
				t.DataServed[lv]++
				accData = lat
				accServed = lv
				accTLBHit = out.TLBHit
				break
			}
			if out.Err != nil {
				err = fmt.Errorf("vm: task %s: %w", t.Name(), out.Err)
				break quantum
			}
			if !out.GuestFault {
				err = fmt.Errorf("vm: translation of %#x failed without fault", uint64(acc.VA))
				break quantum
			}
			if attempt >= 3 {
				err = fmt.Errorf("vm: fault loop at %#x (task %s)", uint64(acc.VA), t.Name())
				break quantum
			}
			kind, ferr := proc.HandleFaultAt(acc.VA, acc.Write, walker.FaultStop())
			if ferr != nil {
				err = fmt.Errorf("vm: task %s: %w", t.Name(), ferr)
				break quantum
			}
			if tracer != nil {
				// Faults interleave with accesses in stream order: flush
				// the pending access records first.
				if len(recs) > 0 {
					tracer.AccessBatch(recs)
					recs = recs[:0]
				}
				tracer.Fault(t.index, acc.VA, uint8(kind), seq)
			}
			t.FaultCycles += faultCost(kind)
		}
		if dirtyLog && acc.Write {
			// PML-style write tracking: the page walker sets the EPT dirty
			// bit and logs the guest-physical page on a clear→set
			// transition. Free in cycles, like the hardware buffer write.
			if gpa, _, ok := gpt.Translate(acc.VA); ok {
				hostVM.MarkDirty(gpa)
			}
		}
		if tracer != nil {
			recs = append(recs, AccessRecord{
				Task: t.index, VA: acc.VA, Write: acc.Write, TLBHit: accTLBHit,
				TranslationCycles: accTranslation, DataCycles: accData,
				Served: uint8(accServed), Seq: seq,
			})
		}
		if !t.initSeen && prog.InitDone() {
			t.initSeen = true
			t.initSnapshot = t.taskCounters
		}
	}
	if tracer != nil && len(recs) > 0 {
		tracer.AccessBatch(recs)
	}
	m.recBuf = recs[:0]
	return err
}

// TaskReport is the measured slice of one primary task.
type TaskReport struct {
	Name string
	// Guest is the index of the guest the task ran in (0 on a single-VM
	// machine).
	Guest int
	// Whole-run totals.
	Cycles, WorkCycles, DataCycles, TranslationCycles, FaultCycles uint64
	Accesses                                                       uint64
	DataServed                                                     [cache.NumLevels]uint64
	// Steady-state totals (from the init boundary to the end) — the §3.3
	// measurement window.
	SteadyCycles, SteadyTranslationCycles, SteadyDataCycles uint64
	SteadyAccesses                                          uint64
	SteadyDataServed                                        [cache.NumLevels]uint64
	// Frag is the host-PT fragmentation of the task's process at the end
	// of the run.
	Frag metrics.FragReport
}

// taskFrag computes the host-PT fragmentation of t's process. A destroyed
// guest's host page table is gone; its tasks keep their cycle totals but
// report zero-valued fragmentation.
func taskFrag(t *Task) metrics.FragReport {
	if !t.guest.alive {
		return metrics.FragReport{}
	}
	return metrics.HostPTFragmentation(t.proc.PageTable(), t.guest.hostVM.PageTable())
}

// report assembles the post-run measurements for every primary task, with
// each task's fragmentation taken from frags (indexed by task index).
func (m *Machine) report(frags []metrics.FragReport) []TaskReport {
	var out []TaskReport
	for _, t := range m.tasks {
		if t.role != RolePrimary {
			continue
		}
		r := TaskReport{
			Name:              t.Name(),
			Guest:             t.guest.index,
			Cycles:            t.cycles(),
			WorkCycles:        t.workCycles(),
			DataCycles:        t.DataCycles,
			TranslationCycles: t.TranslationCycles,
			FaultCycles:       t.FaultCycles,
			Accesses:          t.Accesses,
			DataServed:        t.DataServed,
			Frag:              frags[t.index],
		}
		snap := t.initSnapshot
		if !t.initSeen {
			snap = t.taskCounters // never reached steady state
		}
		r.SteadyCycles = r.Cycles - snap.cycles()
		r.SteadyTranslationCycles = t.TranslationCycles - snap.TranslationCycles
		r.SteadyDataCycles = t.DataCycles - snap.DataCycles
		r.SteadyAccesses = t.Accesses - snap.Accesses
		for i := range r.SteadyDataServed {
			r.SteadyDataServed[i] = t.DataServed[i] - snap.DataServed[i]
		}
		out = append(out, r)
	}
	return out
}
