// Package workload provides synthetic memory-access programs standing in
// for the paper's benchmarks (GPOP graph kernels, SPEC'17) and co-runners
// (MLPerf objdet, stress-ng, serverless functions).
//
// The real benchmarks cannot run inside the simulator (no ISA), so each
// program reproduces the *memory behaviour* that determines PTEMagnet's
// effect: footprint size relative to TLB reach, spatial locality of the
// TLB-miss stream, page-fault (allocation) rate, and free/realloc churn.
// Sizes default to roughly 1/256 of the paper's setup, consistent with the
// simulator's scaled cache hierarchy (see DESIGN.md).
package workload

import (
	"fmt"
	"math/rand"

	"ptemagnet/internal/arch"
)

// Env is the system interface a program sees: eager virtual allocation and
// free, as provided by the guest kernel through the machine layer.
type Env interface {
	// Mmap eagerly allocates a virtual region and returns its base.
	Mmap(bytes uint64) (arch.VirtAddr, error)
	// Free releases the pages of [va, va+bytes) (physical memory only;
	// the region stays mapped).
	Free(va arch.VirtAddr, bytes uint64) error
}

// Access is one memory reference.
type Access struct {
	VA    arch.VirtAddr
	Write bool
}

// Program is a deterministic access-stream generator.
type Program interface {
	// Name identifies the program (matches the paper's benchmark names).
	Name() string
	// FootprintBytes is the declared memory need (the cgroup
	// memory.limit_in_bytes used by the §4.4 enable threshold).
	FootprintBytes() uint64
	// Setup allocates the program's regions. Called once before stepping.
	Setup(env Env) error
	// Step produces the next access. done=true means the program
	// finished; the access is ignored then. Programs may call env (alloc
	// churn) inside Step: the machine executes every access Step returned
	// — page faults included — before it calls Step again, so an env call
	// sees the state those accesses left behind.
	Step(env Env) (acc Access, done bool)
	// InitDone reports whether the program has finished populating its
	// data structures (allocated all its physical memory). §3.3 stops
	// co-runners at this boundary and measures the steady phase.
	InitDone() bool
}

// touchSpan emits one access per page of [base, base+bytes) — the
// initialization scan that faults a region in.
type touchSpan struct {
	base  arch.VirtAddr
	pages uint64
	next  uint64
	write bool
}

func (t *touchSpan) step() (Access, bool) {
	if t.next >= t.pages {
		return Access{}, true
	}
	va := t.base + arch.VirtAddr(t.next<<arch.PageShift)
	t.next++
	return Access{VA: va, Write: t.write}, false
}

// region is a named allocated span.
type region struct {
	base  arch.VirtAddr
	bytes uint64
}

func (r region) pageCount() uint64 { return r.bytes >> arch.PageShift }

func (r region) pageVA(page uint64) arch.VirtAddr {
	return r.base + arch.VirtAddr(page<<arch.PageShift)
}

func mmapRegion(env Env, bytes uint64) (region, error) {
	bytes = arch.PagesToBytes(arch.BytesToPages(bytes))
	base, err := env.Mmap(bytes)
	if err != nil {
		return region{}, fmt.Errorf("workload: mmap %d bytes: %w", bytes, err)
	}
	return region{base: base, bytes: bytes}, nil
}

// ---------------------------------------------------------------------------
// Graph kernels (GPOP: pagerank, cc, bfs, nibble)
// ---------------------------------------------------------------------------

// GraphConfig sizes a graph kernel.
type GraphConfig struct {
	// DatasetBytes is the total footprint (offsets + edges + two vertex
	// arrays). The paper uses 16GB; the scaled default is 48MB.
	DatasetBytes uint64
	// Accesses bounds the access stream after initialization.
	Accesses uint64
	// Seed drives edge randomness.
	Seed int64
	// Locality is the probability that the next neighbour access falls
	// near the previous one (same region) instead of uniformly random —
	// graph kernels on partitioned layouts (nibble) have more.
	Locality float64
}

func (c *GraphConfig) setDefaults() {
	if c.DatasetBytes == 0 {
		c.DatasetBytes = 48 << 20
	}
	if c.Accesses == 0 {
		c.Accesses = 2_000_000
	}
}

// graphKernel is the shared engine behind the four GPOP benchmarks: a
// vertex-ordered scan (offsets + own rank, spatially local) interleaved
// with neighbour-rank reads that are spread over the vertex array
// (TLB-hostile), which is exactly the pattern that makes graph analytics
// page-walk bound.
type graphKernel struct {
	name string
	cfg  GraphConfig
	rng  *rand.Rand

	offsets region // vertex offsets, sequential
	edges   region // edge array, mostly sequential
	src     region // source ranks, random reads
	dst     region // destination ranks, sequential writes

	init      touchSpan
	initStage int
	step      uint64
	cursor    uint64 // sequential position in the vertex scan
	lastRand  uint64 // previous random page, for locality
}

func newGraphKernel(name string, cfg GraphConfig) *graphKernel {
	cfg.setDefaults()
	return &graphKernel{name: name, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (g *graphKernel) Name() string           { return g.name }
func (g *graphKernel) FootprintBytes() uint64 { return g.cfg.DatasetBytes }
func (g *graphKernel) InitDone() bool         { return g.initStage > 3 }

func (g *graphKernel) Setup(env Env) error {
	total := g.cfg.DatasetBytes
	var err error
	if g.offsets, err = mmapRegion(env, total/12); err != nil {
		return err
	}
	if g.edges, err = mmapRegion(env, total/2); err != nil {
		return err
	}
	if g.src, err = mmapRegion(env, total*5/24); err != nil {
		return err
	}
	if g.dst, err = mmapRegion(env, total*5/24); err != nil {
		return err
	}
	g.init = touchSpan{base: g.offsets.base, pages: g.offsets.pageCount(), write: true}
	return nil
}

func (g *graphKernel) Step(env Env) (Access, bool) {
	// Initialization: touch every page of every region (writes), the
	// allocation phase the paper's §3.3 experiment uses as its boundary.
	for g.initStage <= 3 {
		acc, done := g.init.step()
		if !done {
			return acc, false
		}
		g.initStage++
		switch g.initStage {
		case 1:
			g.init = touchSpan{base: g.edges.base, pages: g.edges.pageCount(), write: true}
		case 2:
			g.init = touchSpan{base: g.src.base, pages: g.src.pageCount(), write: true}
		case 3:
			g.init = touchSpan{base: g.dst.base, pages: g.dst.pageCount(), write: true}
		}
	}
	if g.step >= g.cfg.Accesses {
		return Access{}, true
	}
	g.step++
	g.cursor++
	// Mix: 4-access inner loop per "edge": offsets read (sequential),
	// edge read (sequential), source-rank read (random — the TLB killer),
	// destination-rank write (sequential).
	switch g.step % 4 {
	case 0:
		page := (g.cursor / arch.WordsPerPage) % g.offsets.pageCount()
		return Access{VA: g.offsets.pageVA(page) + arch.VirtAddr(g.cursor%arch.WordsPerPage*arch.WordBytes)}, false
	case 1:
		page := (g.cursor / 8) % g.edges.pageCount()
		return Access{VA: g.edges.pageVA(page) + arch.VirtAddr(g.cursor%arch.WordsPerPage*arch.WordBytes)}, false
	case 2:
		var page uint64
		if g.rng.Float64() < g.cfg.Locality {
			// Neighbourhood locality: within ±4 pages of the last one.
			delta := uint64(g.rng.Intn(9))
			page = (g.lastRand + delta) % g.src.pageCount()
		} else {
			page = g.rng.Uint64() % g.src.pageCount()
		}
		g.lastRand = page
		return Access{VA: g.src.pageVA(page) + arch.VirtAddr(g.rng.Intn(arch.WordsPerPage)*arch.WordBytes)}, false
	default:
		page := (g.cursor / 16) % g.dst.pageCount()
		return Access{VA: g.dst.pageVA(page) + arch.VirtAddr(g.cursor%arch.WordsPerPage*arch.WordBytes), Write: true}, false
	}
}

// NewPagerank builds the pagerank stand-in (uniformly random neighbours).
func NewPagerank(cfg GraphConfig) Program {
	cfg.setDefaults()
	if cfg.Locality == 0 {
		cfg.Locality = 0.35
	}
	return newGraphKernel("pagerank", cfg)
}

// NewCC builds the connected-components stand-in (slightly more locality —
// label propagation revisits neighbourhoods).
func NewCC(cfg GraphConfig) Program {
	cfg.setDefaults()
	if cfg.Locality == 0 {
		cfg.Locality = 0.45
	}
	return newGraphKernel("cc", cfg)
}

// NewBFS builds the BFS stand-in (frontier expansion: moderate locality).
func NewBFS(cfg GraphConfig) Program {
	cfg.setDefaults()
	if cfg.Locality == 0 {
		cfg.Locality = 0.40
	}
	return newGraphKernel("bfs", cfg)
}

// NewNibble builds the GPOP nibble stand-in (partition-centric processing:
// the highest locality of the four).
func NewNibble(cfg GraphConfig) Program {
	cfg.setDefaults()
	if cfg.Locality == 0 {
		cfg.Locality = 0.60
	}
	return newGraphKernel("nibble", cfg)
}

// ---------------------------------------------------------------------------
// SPEC'17 stand-ins
// ---------------------------------------------------------------------------

// SpecConfig sizes a SPEC stand-in.
type SpecConfig struct {
	// FootprintBytes is the resident footprint.
	FootprintBytes uint64
	// Accesses bounds the stream.
	Accesses uint64
	// Seed drives randomness.
	Seed int64
}

func (c *SpecConfig) setDefaults(footprint uint64, accesses uint64) {
	if c.FootprintBytes == 0 {
		c.FootprintBytes = footprint
	}
	if c.Accesses == 0 {
		c.Accesses = accesses
	}
}

// mcf is a pointer chase over a permutation cycle: nearly every access is a
// TLB miss to a random page — the classic walk-bound SPEC benchmark.
type mcf struct {
	cfg   SpecConfig
	rng   *rand.Rand
	arena region
	init  touchSpan
	ready bool
	step  uint64
	pos   uint64
	burst int // short spatial bursts within a node's record
}

// NewMCF builds the mcf stand-in.
func NewMCF(cfg SpecConfig) Program {
	cfg.setDefaults(40<<20, 2_000_000)
	return &mcf{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (m *mcf) Name() string           { return "mcf" }
func (m *mcf) FootprintBytes() uint64 { return m.cfg.FootprintBytes }
func (m *mcf) InitDone() bool         { return m.ready }

func (m *mcf) Setup(env Env) error {
	var err error
	if m.arena, err = mmapRegion(env, m.cfg.FootprintBytes); err != nil {
		return err
	}
	m.init = touchSpan{base: m.arena.base, pages: m.arena.pageCount(), write: true}
	return nil
}

func (m *mcf) Step(env Env) (Access, bool) {
	if !m.ready {
		acc, done := m.init.step()
		if !done {
			return acc, false
		}
		m.ready = true
	}
	if m.step >= m.cfg.Accesses {
		return Access{}, true
	}
	m.step++
	if m.burst > 0 {
		// A few field accesses within the current node's page.
		m.burst--
		return Access{VA: m.arena.pageVA(m.pos) + arch.VirtAddr(m.rng.Intn(arch.WordsPerPage)*arch.WordBytes), Write: m.burst == 0}, false
	}
	// Follow the "pointer": jump to a pseudo-random page derived from the
	// current one (a fixed permutation, so revisits do occur).
	m.pos = (m.pos*2654435761 + 12345) % m.arena.pageCount()
	m.burst = 2
	return Access{VA: m.arena.pageVA(m.pos)}, false
}

// mixProgram covers gcc and omnetpp: a hot sequential working set plus a
// fraction of random accesses over the full heap.
type mixProgram struct {
	name       string
	cfg        SpecConfig
	randomFrac float64
	rng        *rand.Rand
	arena      region
	init       touchSpan
	ready      bool
	step, seq  uint64
	hotPages   uint64
}

// NewGCC builds the gcc stand-in: modest footprint, mostly local accesses —
// one of the low-TLB-pressure benchmarks PTEMagnet must not slow down.
func NewGCC(cfg SpecConfig) Program {
	cfg.setDefaults(12<<20, 1_500_000)
	return &mixProgram{name: "gcc", cfg: cfg, randomFrac: 0.025,
		rng: rand.New(rand.NewSource(cfg.Seed))}
}

// NewOmnetpp builds the omnetpp stand-in: discrete-event simulation over a
// large object heap — scattered accesses, moderate TLB pressure.
func NewOmnetpp(cfg SpecConfig) Program {
	cfg.setDefaults(24<<20, 1_800_000)
	return &mixProgram{name: "omnetpp", cfg: cfg, randomFrac: 0.12,
		rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (p *mixProgram) Name() string           { return p.name }
func (p *mixProgram) FootprintBytes() uint64 { return p.cfg.FootprintBytes }
func (p *mixProgram) InitDone() bool         { return p.ready }

func (p *mixProgram) Setup(env Env) error {
	var err error
	if p.arena, err = mmapRegion(env, p.cfg.FootprintBytes); err != nil {
		return err
	}
	p.hotPages = p.arena.pageCount() / 16
	if p.hotPages == 0 {
		p.hotPages = 1
	}
	p.init = touchSpan{base: p.arena.base, pages: p.arena.pageCount(), write: true}
	return nil
}

func (p *mixProgram) Step(env Env) (Access, bool) {
	if !p.ready {
		acc, done := p.init.step()
		if !done {
			return acc, false
		}
		p.ready = true
	}
	if p.step >= p.cfg.Accesses {
		return Access{}, true
	}
	p.step++
	if p.rng.Float64() < p.randomFrac {
		page := p.rng.Uint64() % p.arena.pageCount()
		return Access{VA: p.arena.pageVA(page) + arch.VirtAddr(p.rng.Intn(arch.WordsPerPage)*arch.WordBytes)}, false
	}
	p.seq++
	page := (p.seq / 64) % p.hotPages
	return Access{VA: p.arena.pageVA(page) + arch.VirtAddr(p.seq%arch.WordsPerPage*arch.WordBytes), Write: p.seq%4 == 0}, false
}

// xz models LZMA compression: a streaming input plus match copies that jump
// backwards into a large dictionary window and then read several nearby
// pages — dense group-level spatial locality over a big footprint, which is
// why xz benefits most from PTEMagnet in the paper (9%).
type xz struct {
	cfg    SpecConfig
	rng    *rand.Rand
	window region
	init   touchSpan
	ready  bool
	step   uint64
	inPos  uint64
	match  uint64 // current match position (page)
	run    int    // remaining accesses in the current match copy
}

// NewXZ builds the xz stand-in.
func NewXZ(cfg SpecConfig) Program {
	cfg.setDefaults(36<<20, 2_000_000)
	return &xz{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (x *xz) Name() string           { return "xz" }
func (x *xz) FootprintBytes() uint64 { return x.cfg.FootprintBytes }
func (x *xz) InitDone() bool         { return x.ready }

func (x *xz) Setup(env Env) error {
	var err error
	if x.window, err = mmapRegion(env, x.cfg.FootprintBytes); err != nil {
		return err
	}
	x.init = touchSpan{base: x.window.base, pages: x.window.pageCount(), write: true}
	return nil
}

func (x *xz) Step(env Env) (Access, bool) {
	if !x.ready {
		acc, done := x.init.step()
		if !done {
			return acc, false
		}
		x.ready = true
	}
	if x.step >= x.cfg.Accesses {
		return Access{}, true
	}
	x.step++
	if x.run > 0 {
		// Continue copying the match: walk forward through adjacent
		// pages — successive TLB misses land in the same 8-page group.
		x.run--
		x.match = (x.match + 1) % x.window.pageCount()
		return Access{VA: x.window.pageVA(x.match)}, false
	}
	if x.step%3 == 0 {
		// New match: jump to a random dictionary position, then copy
		// across the next few pages.
		x.match = x.rng.Uint64() % x.window.pageCount()
		x.run = 4 + x.rng.Intn(8)
		return Access{VA: x.window.pageVA(x.match)}, false
	}
	// Streaming input (sequential writes).
	x.inPos++
	page := (x.inPos / 32) % x.window.pageCount()
	return Access{VA: x.window.pageVA(page) + arch.VirtAddr(x.inPos%arch.WordsPerPage*arch.WordBytes), Write: true}, false
}
