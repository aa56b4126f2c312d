package vm

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/workload"
)

// legacyProgram hides a workload's StepBatch so AddTask must route it
// through the one-access-per-batch adapter — the pre-batching behaviour.
type legacyProgram struct{ p workload.Program }

func (l legacyProgram) Name() string                                  { return l.p.Name() }
func (l legacyProgram) FootprintBytes() uint64                        { return l.p.FootprintBytes() }
func (l legacyProgram) Setup(env workload.Env) error                  { return l.p.Setup(env) }
func (l legacyProgram) Step(env workload.Env) (workload.Access, bool) { return l.p.Step(env) }
func (l legacyProgram) InitDone() bool                                { return l.p.InitDone() }

// streamTracer records the full event stream for identity comparison.
type streamTracer struct {
	recs   []AccessRecord
	faults []AccessRecord // reuses the struct: Task/VA/Served(kind)/Seq
}

func (s *streamTracer) AccessBatch(recs []AccessRecord) {
	s.recs = append(s.recs, recs...)
}

func (s *streamTracer) Fault(task int, va arch.VirtAddr, kind uint8, seq uint64) {
	s.faults = append(s.faults, AccessRecord{Task: task, VA: va, Served: kind, Seq: seq})
}

// buildColocated assembles a machine with a primary and two co-runners,
// optionally forcing every program through the legacy adapter.
func buildColocated(t *testing.T, legacy bool) (*Machine, *streamTracer) {
	t.Helper()
	cfg := smallConfig(guestos.PolicyPTEMagnet)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	progs := []struct {
		p    workload.Program
		role Role
	}{
		{workload.NewPagerank(smallGraph(11)), RolePrimary},
		{workload.NewObjdet(workload.CorunnerConfig{FootprintBytes: 2 << 20, Seed: 12}), RoleCorunner},
		{workload.NewStressNG(workload.CorunnerConfig{FootprintBytes: 2 << 20, Seed: 13}), RoleCorunner},
	}
	for _, sp := range progs {
		p := sp.p
		if legacy {
			p = legacyProgram{p}
		}
		if _, err := m.AddTask(p, sp.role); err != nil {
			t.Fatal(err)
		}
	}
	tr := &streamTracer{}
	m.SetTracer(tr)
	return m, tr
}

// TestBatchedRunMatchesAdapterRun is the machine-level identity proof: the
// same colocated scenario run with native batched programs and with every
// program forced through the legacy one-access adapter must produce
// identical reports, walker stats, guest kernel state and event streams.
func TestBatchedRunMatchesAdapterRun(t *testing.T) {
	run := func(legacy bool) ([]TaskReport, any, any, *streamTracer) {
		m, tr := buildColocated(t, legacy)
		if err := m.RunWith(context.Background(), WithSampleEvery(64)); err != nil {
			t.Fatal(err)
		}
		return m.Report(), m.Observe().Steady.Walker, m.Guest().Snapshot(), tr
	}
	repB, walkB, guestB, trB := run(false)
	repA, walkA, guestA, trA := run(true)
	if !reflect.DeepEqual(repB, repA) {
		t.Errorf("reports differ:\nbatched: %+v\nadapter: %+v", repB, repA)
	}
	if !reflect.DeepEqual(walkB, walkA) {
		t.Errorf("walker stats differ:\nbatched: %+v\nadapter: %+v", walkB, walkA)
	}
	if !reflect.DeepEqual(guestB, guestA) {
		t.Errorf("guest snapshots differ:\nbatched: %+v\nadapter: %+v", guestB, guestA)
	}
	if !reflect.DeepEqual(trB.recs, trA.recs) {
		t.Errorf("access streams differ: %d vs %d records", len(trB.recs), len(trA.recs))
	}
	if !reflect.DeepEqual(trB.faults, trA.faults) {
		t.Errorf("fault streams differ: %d vs %d records", len(trB.faults), len(trA.faults))
	}
	if len(trB.recs) == 0 || len(trB.faults) == 0 {
		t.Error("empty event stream; identity check vacuous")
	}
}

// TestMaxAccessesBoundary pins the budget semantics: the run errors as soon
// as the executed access count reaches the budget, not one quantum later.
func TestMaxAccessesBoundary(t *testing.T) {
	cfg := smallConfig(guestos.PolicyDefault)
	cfg.Quantum = 8
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddTask(workload.NewPagerank(smallGraph(9)), RolePrimary); err != nil {
		t.Fatal(err)
	}
	// One solo task executes exactly Quantum accesses per round; a budget of
	// exactly one round must already trip the guard.
	if err := m.RunWith(context.Background(), WithMaxAccesses(8)); err == nil {
		t.Fatal("budget of one round not enforced")
	}
	if m.totalAccesses != 8 {
		t.Errorf("run stopped after %d accesses, want exactly 8", m.totalAccesses)
	}
}

func TestConfigValidate(t *testing.T) {
	base := smallConfig(guestos.PolicyDefault)
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"zero host mem", func(c *Config) { c.HostMemBytes = 0 }, "HostMemBytes"},
		{"zero guest mem", func(c *Config) { c.GuestMemBytes = 0 }, "GuestMemBytes"},
		{"guest exceeds host", func(c *Config) { c.GuestMemBytes = c.HostMemBytes * 2 }, "GuestMemBytes"},
		{"negative cpus", func(c *Config) { c.NumCPUs = -1 }, "NumCPUs"},
		{"negative quantum", func(c *Config) { c.Quantum = -4 }, "Quantum"},
		{"bad levels", func(c *Config) { c.PTLevels = 3 }, "PTLevels"},
		{"watermark too high", func(c *Config) { c.ReclaimWatermark = 1.5 }, "ReclaimWatermark"},
		{"bad magnet", func(c *Config) { c.Magnet.GroupPages = 3 }, "GroupPages"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate = nil, want error", tc.name)
			continue
		}
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
		} else if cerr.Field != tc.field {
			t.Errorf("%s: Field = %q, want %q", tc.name, cerr.Field, tc.field)
		}
		if _, nerr := New(cfg); nerr == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
	// Zero values of optional fields are defaults, not errors.
	zero := Config{HostMemBytes: 128 << 20, GuestMemBytes: 64 << 20}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero-value optional fields rejected: %v", err)
	}
	if _, err := New(zero); err != nil {
		t.Errorf("New with zero-value optional fields failed: %v", err)
	}
}

// benchMachine builds a large-quantum machine running pagerank solo, the
// configuration where batching amortization shows.
func benchMachine(b *testing.B, legacy bool) *Machine {
	b.Helper()
	cfg := Config{
		HostMemBytes:  256 << 20,
		GuestMemBytes: 128 << 20,
		NumCPUs:       4,
		Quantum:       256,
		Seed:          42,
	}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var p workload.Program = workload.NewPagerank(workload.GraphConfig{
		DatasetBytes: 8 << 20, Accesses: 200_000, Seed: 7,
	})
	if legacy {
		p = legacyProgram{p}
	}
	if _, err := m.AddTask(p, RolePrimary); err != nil {
		b.Fatal(err)
	}
	return m
}

func benchLoop(b *testing.B, legacy bool) {
	var total uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchMachine(b, legacy)
		b.StartTimer()
		if err := m.RunWith(context.Background()); err != nil {
			b.Fatal(err)
		}
		total += m.totalAccesses
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkPipelineMachineLoopBatched measures the full machine loop with
// native batched programs.
func BenchmarkPipelineMachineLoopBatched(b *testing.B) { benchLoop(b, false) }

// BenchmarkPipelineMachineLoopAdapter measures the same run forced through
// the one-access-per-batch legacy adapter.
func BenchmarkPipelineMachineLoopAdapter(b *testing.B) { benchLoop(b, true) }
