package vm

import (
	"context"
	"reflect"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/workload"
)

// churnProgram is a Step-only primary that maps a fresh region mid-stream,
// touches each of its pages, frees it and starts over. At every Step call
// it checks that the machine has executed every access it returned before.
type churnProgram struct {
	t        *testing.T
	task     *Task // set once AddTask returns
	returned uint64
	region   arch.VirtAddr
	touched  uint64
	rounds   int
}

const (
	churnPages  = 5
	churnRounds = 40
)

func (p *churnProgram) Name() string             { return "churn" }
func (p *churnProgram) FootprintBytes() uint64   { return churnPages * arch.PageSize }
func (p *churnProgram) Setup(workload.Env) error { return nil }
func (p *churnProgram) InitDone() bool           { return p.rounds > 0 }

func (p *churnProgram) Step(env workload.Env) (workload.Access, bool) {
	if got := p.task.Accesses; got != p.returned {
		p.t.Errorf("Step called with %d of the task's accesses executed, want %d", got, p.returned)
	}
	if p.touched == churnPages {
		if err := env.Free(p.region, churnPages*arch.PageSize); err != nil {
			p.t.Errorf("free: %v", err)
			return workload.Access{}, true
		}
		p.region, p.touched = 0, 0
		if p.rounds++; p.rounds == churnRounds {
			return workload.Access{}, true
		}
	}
	if p.region == 0 {
		va, err := env.Mmap(churnPages * arch.PageSize)
		if err != nil {
			p.t.Errorf("mmap: %v", err)
			return workload.Access{}, true
		}
		p.region = va
	}
	acc := workload.Access{VA: p.region + arch.VirtAddr(p.touched*arch.PageSize), Write: true}
	p.touched++
	p.returned++
	return acc, false
}

// TestStepSeesEveryEarlierAccessExecuted pins the machine's one ordering
// rule: every access Step returned is executed before Step is called again,
// at any quantum, so env calls inside Step see per-access state.
func TestStepSeesEveryEarlierAccessExecuted(t *testing.T) {
	for _, q := range []int{1, 2, 8, 256} {
		cfg := smallConfig(guestos.PolicyPTEMagnet)
		cfg.Quantum = q
		m, err := NewHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := &churnProgram{t: t}
		if p.task, err = m.AddTask(p, RolePrimary); err != nil {
			t.Fatal(err)
		}
		corunner := workload.NewObjdet(workload.CorunnerConfig{FootprintBytes: 2 << 20, Seed: 12})
		if _, err := m.AddTask(corunner, RoleCorunner); err != nil {
			t.Fatal(err)
		}
		if err := m.RunWith(context.Background()); err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
		if want := uint64(churnPages * churnRounds); p.returned != want || p.task.Accesses != want {
			t.Errorf("quantum %d: returned %d, executed %d accesses, want %d", q, p.returned, p.task.Accesses, want)
		}
	}
}

// TestQuantumKeepsSoloRunIdentical pins the exact-access init boundary: a
// solo primary's reports and whole-run counters do not depend on the
// quantum, so the steady window starts at the access that flipped InitDone
// however many accesses that quantum still had to run. (The machine-level
// steady snapshot is taken between rounds and legitimately moves with the
// quantum, so Observe().Steady is not compared.)
func TestQuantumKeepsSoloRunIdentical(t *testing.T) {
	run := func(q int) ([]TaskReport, Stats) {
		cfg := smallConfig(guestos.PolicyPTEMagnet)
		cfg.Quantum = q
		m, err := NewHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// An odd page count puts the init boundary mid-quantum at every
		// quantum tested.
		mcf := workload.NewMCF(workload.SpecConfig{FootprintBytes: 1001 * arch.PageSize, Accesses: 30_000, Seed: 5})
		if _, err := m.AddTask(mcf, RolePrimary); err != nil {
			t.Fatal(err)
		}
		if err := m.RunWith(context.Background()); err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
		return m.Observe().Tasks, m.Snapshot()
	}
	wantRep, wantSnap := run(1)
	if r := wantRep[0]; r.SteadyAccesses == 0 || r.SteadyAccesses == r.Accesses {
		t.Fatalf("steady window %d of %d accesses; boundary check vacuous", r.SteadyAccesses, r.Accesses)
	}
	for _, q := range []int{2, 8, 256} {
		rep, snap := run(q)
		if !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("quantum %d: reports differ:\n got %+v\nwant %+v", q, rep, wantRep)
		}
		if !reflect.DeepEqual(snap, wantSnap) {
			t.Errorf("quantum %d: snapshots differ:\n got %+v\nwant %+v", q, snap, wantSnap)
		}
	}
}

// TestMaxAccessesBoundary pins the budget semantics: the run errors as soon
// as the executed access count reaches the budget, not one quantum later.
func TestMaxAccessesBoundary(t *testing.T) {
	cfg := smallConfig(guestos.PolicyDefault)
	cfg.Quantum = 8
	m, err := NewHost(cfg)
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

// BenchmarkPipelineMachineLoop measures the full machine loop: a solo
// pagerank at Quantum 256.
func BenchmarkPipelineMachineLoop(b *testing.B) {
	var total uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := NewHost(HostConfig{
			HostMemBytes: 256 << 20,
			NumCPUs:      4,
			Quantum:      256,
			Guests:       []GuestConfig{{MemBytes: 128 << 20, Seed: 42}},
		})
		if err != nil {
			b.Fatal(err)
		}
		p := workload.NewPagerank(workload.GraphConfig{DatasetBytes: 8 << 20, Accesses: 200_000, Seed: 7})
		if _, err := m.AddTask(p, RolePrimary); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.RunWith(context.Background()); err != nil {
			b.Fatal(err)
		}
		total += m.totalAccesses
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkPipelineFirstTouch measures the machine's fault path: allocmicro
// touches each page of a 48 MB array once, so nearly every access takes a
// guest fault and an EPT violation, on a 64 MB guest of a 256 MB host at
// Quantum 2, under each policy. The machine is built outside the timer.
func BenchmarkPipelineFirstTouch(b *testing.B) {
	for _, policy := range []guestos.AllocPolicy{guestos.PolicyDefault, guestos.PolicyPTEMagnet} {
		b.Run(policy.String(), func(b *testing.B) {
			var faults uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := NewHost(HostConfig{
					HostMemBytes: 256 << 20,
					NumCPUs:      4,
					Quantum:      2,
					Guests:       []GuestConfig{{MemBytes: 64 << 20, Policy: policy, Seed: 42}},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.AddTask(workload.NewAllocMicro(48<<20), RolePrimary); err != nil {
					b.Fatal(err)
				}
				k := m.Guests()[0].Kernel()
				before := k.Snapshot()
				b.StartTimer()
				if err := m.RunWith(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for kind, n := range k.Snapshot().Delta(before).Faults {
					if guestos.FaultKind(kind) != guestos.FaultAlreadyMapped {
						faults += n
					}
				}
			}
			b.ReportMetric(float64(faults)/b.Elapsed().Seconds(), "faults/s")
		})
	}
}
