package workload

import (
	"math/rand"

	"ptemagnet/internal/arch"
)

// CorunnerConfig sizes a co-runner.
type CorunnerConfig struct {
	// FootprintBytes is the live footprint.
	FootprintBytes uint64
	// Seed drives randomness.
	Seed int64
}

func (c *CorunnerConfig) setDefaults(footprint uint64) {
	if c.FootprintBytes == 0 {
		c.FootprintBytes = footprint
	}
}

// Co-runners run "forever": their Step never reports done. The machine
// layer stops them when the primary benchmarks finish (or at the §3.3 init
// boundary). They exist to stress the guest allocator with interleaved page
// faults; their own performance is not measured.

// objdet models the MLPerf SSD-MobileNet object-detection server — the
// co-runner with the highest page-fault rate in the paper's Table 3. Per
// inference it allocates a fresh activation arena, touches it page by page
// (faults!), reads the resident model weights, then frees the arena.
type objdet struct {
	cfg     CorunnerConfig
	rng     *rand.Rand
	weights region
	arena   region
	wInit   touchSpan
	ready   bool
	phase   touchSpan
	inArena bool
	reads   int
}

// NewObjdet builds the objdet stand-in.
func NewObjdet(cfg CorunnerConfig) Program {
	cfg.setDefaults(32 << 20)
	return &objdet{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (o *objdet) Name() string           { return "objdet" }
func (o *objdet) FootprintBytes() uint64 { return o.cfg.FootprintBytes }
func (o *objdet) InitDone() bool         { return o.ready }

func (o *objdet) Setup(env Env) error {
	var err error
	if o.weights, err = mmapRegion(env, o.cfg.FootprintBytes/2); err != nil {
		return err
	}
	o.wInit = touchSpan{base: o.weights.base, pages: o.weights.pageCount(), write: true}
	return nil
}

func (o *objdet) Step(env Env) (Access, bool) {
	if !o.ready {
		acc, done := o.wInit.step()
		if !done {
			return acc, false
		}
		o.ready = true
	}
	if o.inArena {
		acc, done := o.phase.step()
		if !done {
			return acc, false
		}
		// Inference complete: free the activations (physical churn) and
		// read some weights before the next round.
		if err := env.Free(o.arena.base, o.arena.bytes); err != nil {
			return Access{}, true
		}
		o.inArena = false
		o.reads = 64
	}
	if o.reads > 0 {
		o.reads--
		page := o.rng.Uint64() % o.weights.pageCount()
		return Access{VA: o.weights.pageVA(page)}, false
	}
	// Start the next inference: a fresh activation arena. Reuse the
	// region's virtual span if already mmapped (malloc reusing freed
	// arena), but its pages were freed so every touch faults.
	if o.arena.bytes == 0 {
		arena, err := mmapRegion(env, o.cfg.FootprintBytes/2)
		if err != nil {
			return Access{}, true
		}
		o.arena = arena
	}
	o.phase = touchSpan{base: o.arena.base, pages: o.arena.pageCount(), write: true}
	o.inArena = true
	return o.Step(env)
}

// stressng models `stress-ng` with N memory hogs that continuously allocate
// and free physical memory (the §3.3 fragmentation co-runner). Each worker
// cycles: touch every page of its slab (faulting it in), then free it.
// Workers are staggered so allocations from different workers — and from
// whatever else runs in the VM — interleave in the buddy allocator.
type stressng struct {
	cfg     CorunnerConfig
	workers int
	slabs   []region
	phase   []touchSpan
	active  int
	ready   bool
	setup   int
}

// NewStressNG builds the stress-ng stand-in with the paper's 12 workers.
func NewStressNG(cfg CorunnerConfig) Program {
	cfg.setDefaults(24 << 20)
	return &stressng{cfg: cfg, workers: 12}
}

func (s *stressng) Name() string           { return "stress-ng" }
func (s *stressng) FootprintBytes() uint64 { return s.cfg.FootprintBytes }
func (s *stressng) InitDone() bool         { return s.ready }

func (s *stressng) Setup(env Env) error {
	slabBytes := arch.AlignUp(s.cfg.FootprintBytes/uint64(s.workers), arch.PageSize)
	for i := 0; i < s.workers; i++ {
		r, err := mmapRegion(env, slabBytes)
		if err != nil {
			return err
		}
		s.slabs = append(s.slabs, r)
		// Stagger the workers across their slabs.
		s.phase = append(s.phase, touchSpan{
			base:  r.base,
			pages: r.pageCount(),
			next:  uint64(i) * r.pageCount() / uint64(s.workers),
			write: true,
		})
	}
	return nil
}

func (s *stressng) Step(env Env) (Access, bool) {
	s.ready = true
	// Round-robin across workers, one access each — maximal interleaving.
	w := s.active
	s.active = (s.active + 1) % s.workers
	acc, done := s.phase[w].step()
	if !done {
		return acc, false
	}
	// Worker finished its slab: free it all and start over.
	if err := env.Free(s.slabs[w].base, s.slabs[w].bytes); err != nil {
		return Access{}, true
	}
	s.phase[w] = touchSpan{base: s.slabs[w].base, pages: s.slabs[w].pageCount(), write: true}
	return s.phase[w].step()
}

// smallFunction models the light serverless co-runners of Table 3
// (chameleon HTML rendering, pyaes encryption, json_serdes, rnn_serving):
// a small resident footprint with mostly-local accesses and occasional
// short-lived scratch allocations.
type smallFunction struct {
	name  string
	cfg   CorunnerConfig
	rng   *rand.Rand
	heap  region
	init  touchSpan
	ready bool
	step  uint64
	churn float64 // probability per step of a scratch alloc/free burst
	burst touchSpan
	inB   bool
	scr   region
}

func newSmallFunction(name string, footprint uint64, churn float64, cfg CorunnerConfig) Program {
	cfg.setDefaults(footprint)
	return &smallFunction{name: name, cfg: cfg, churn: churn,
		rng: rand.New(rand.NewSource(cfg.Seed))}
}

// NewChameleon builds the chameleon (HTML table rendering) stand-in.
func NewChameleon(cfg CorunnerConfig) Program {
	return newSmallFunction("chameleon", 4<<20, 0.002, cfg)
}

// NewPyaes builds the pyaes (AES block cipher) stand-in.
func NewPyaes(cfg CorunnerConfig) Program {
	return newSmallFunction("pyaes", 2<<20, 0.0005, cfg)
}

// NewJSONSerdes builds the JSON (de)serialization stand-in.
func NewJSONSerdes(cfg CorunnerConfig) Program {
	return newSmallFunction("json_serdes", 6<<20, 0.004, cfg)
}

// NewRNNServing builds the RNN name-generation stand-in.
func NewRNNServing(cfg CorunnerConfig) Program {
	return newSmallFunction("rnn_serving", 8<<20, 0.001, cfg)
}

func (f *smallFunction) Name() string           { return f.name }
func (f *smallFunction) FootprintBytes() uint64 { return f.cfg.FootprintBytes }
func (f *smallFunction) InitDone() bool         { return f.ready }

func (f *smallFunction) Setup(env Env) error {
	var err error
	if f.heap, err = mmapRegion(env, f.cfg.FootprintBytes); err != nil {
		return err
	}
	f.init = touchSpan{base: f.heap.base, pages: f.heap.pageCount(), write: true}
	return nil
}

func (f *smallFunction) Step(env Env) (Access, bool) {
	if !f.ready {
		acc, done := f.init.step()
		if !done {
			return acc, false
		}
		f.ready = true
	}
	if f.inB {
		acc, done := f.burst.step()
		if !done {
			return acc, false
		}
		if err := env.Free(f.scr.base, f.scr.bytes); err != nil {
			return Access{}, true
		}
		f.inB = false
	}
	f.step++
	if f.rng.Float64() < f.churn {
		// A request arrives: allocate scratch, touch it, free it.
		if f.scr.bytes == 0 {
			scr, err := mmapRegion(env, 256<<10)
			if err != nil {
				return Access{}, true
			}
			f.scr = scr
		}
		f.burst = touchSpan{base: f.scr.base, pages: f.scr.pageCount(), write: true}
		f.inB = true
		return f.burst.step()
	}
	// Mostly-local heap accesses.
	page := f.step / 8 % f.heap.pageCount()
	if f.rng.Float64() < 0.2 {
		page = f.rng.Uint64() % f.heap.pageCount()
	}
	return Access{VA: f.heap.pageVA(page) + arch.VirtAddr(f.rng.Intn(arch.WordsPerPage)*arch.WordBytes)}, false
}

// ---------------------------------------------------------------------------
// Microbenchmarks
// ---------------------------------------------------------------------------

// allocMicro is the §6.4 allocation-latency microbenchmark: allocate one
// huge array and access each of its pages exactly once, so execution time
// is dominated by the physical-memory allocator.
type allocMicro struct {
	bytes uint64
	arena region
	scan  touchSpan
	begun bool
}

// NewAllocMicro builds the microbenchmark over the given array size (the
// paper uses 60GB on a 64GB VM; pass ~90% of guest memory).
func NewAllocMicro(bytes uint64) Program {
	return &allocMicro{bytes: bytes}
}

func (a *allocMicro) Name() string           { return "allocmicro" }
func (a *allocMicro) FootprintBytes() uint64 { return a.bytes }
func (a *allocMicro) InitDone() bool         { return a.begun && a.scan.next >= a.scan.pages }

func (a *allocMicro) Setup(env Env) error {
	arena, err := mmapRegion(env, a.bytes)
	if err != nil {
		return err
	}
	a.arena = arena
	a.scan = touchSpan{base: arena.base, pages: arena.pageCount(), write: true}
	a.begun = true
	return nil
}

func (a *allocMicro) Step(env Env) (Access, bool) { return a.scan.step() }

// sparse is the §6.2 adversary: it touches only the first page of every
// reservation group, so 7 of 8 reserved pages stay unused — the worst case
// for PTEMagnet's memory overhead.
type sparse struct {
	bytes uint64
	arena region
	next  uint64
	laps  int
}

// NewSparse builds the sparse adversary over the given virtual span.
func NewSparse(bytes uint64) Program {
	return &sparse{bytes: bytes}
}

func (s *sparse) Name() string           { return "sparse" }
func (s *sparse) FootprintBytes() uint64 { return s.bytes }
func (s *sparse) InitDone() bool         { return s.laps > 0 }

func (s *sparse) Setup(env Env) error {
	arena, err := mmapRegion(env, s.bytes)
	if err != nil {
		return err
	}
	s.arena = arena
	return nil
}

func (s *sparse) Step(env Env) (Access, bool) {
	groups := s.arena.bytes / arch.GroupBytes
	if groups == 0 {
		return Access{}, true
	}
	if s.next >= groups {
		s.next = 0
		s.laps++
		if s.laps >= 3 {
			return Access{}, true
		}
	}
	va := s.arena.base + arch.VirtAddr(s.next*arch.GroupBytes)
	s.next++
	return Access{VA: va, Write: true}, false
}
