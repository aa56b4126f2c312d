package vm

import (
	"context"
	"reflect"
	"testing"

	"ptemagnet/internal/guestos"
	"ptemagnet/internal/workload"
)

// hostConfig2 builds a fast two-guest host for tests.
func hostConfig2(policies ...guestos.AllocPolicy) HostConfig {
	hc := smallConfig(guestos.PolicyDefault).Host()
	hc.Guests = hc.Guests[:0]
	for i, p := range policies {
		hc.Guests = append(hc.Guests, GuestConfig{
			MemBytes: 64 << 20,
			Policy:   p,
			Seed:     42 + int64(i),
		})
	}
	return hc
}

// TestHostConfigSingleGuestEquivalence is the pinned N=1 proof: building
// through HostConfig{Guests: [1]} and through the legacy Config must
// produce identical machines — same Report, same Snapshot, same telemetry
// names.
func TestHostConfigSingleGuestEquivalence(t *testing.T) {
	run := func(viaHost bool) (*Machine, Report) {
		cfg := smallConfig(guestos.PolicyPTEMagnet)
		var m *Machine
		var err error
		if viaHost {
			m, err = NewHost(cfg.Host())
		} else {
			m, err = New(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddTask(workload.NewPagerank(smallGraph(1)), RolePrimary); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 2 << 20, Seed: 7}), RoleCorunner); err != nil {
			t.Fatal(err)
		}
		if err := m.RunWith(context.Background(), WithSampleEvery(512)); err != nil {
			t.Fatal(err)
		}
		return m, m.Observe()
	}
	mLegacy, repLegacy := run(false)
	mHost, repHost := run(true)
	if !reflect.DeepEqual(repLegacy, repHost) {
		t.Errorf("reports differ:\nlegacy: %+v\nhost:   %+v", repLegacy, repHost)
	}
	if !reflect.DeepEqual(mLegacy.Snapshot(), mHost.Snapshot()) {
		t.Errorf("snapshots differ")
	}
	namesL := mLegacy.Registry().Names()
	namesH := mHost.Registry().Names()
	if !reflect.DeepEqual(namesL, namesH) {
		t.Errorf("registry names differ: %v vs %v", namesL, namesH)
	}
	for _, name := range namesL {
		if len(name) >= 2 && name[0] == 'v' && name[1] == 'm' {
			t.Errorf("single-guest machine registered prefixed counter %q", name)
		}
	}
}

// runTwoGuests builds and runs a two-guest host with one primary and one
// co-runner per guest.
func runTwoGuests(t *testing.T) *Machine {
	t.Helper()
	m, err := NewHost(hostConfig2(guestos.PolicyDefault, guestos.PolicyPTEMagnet))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range m.Guests() {
		if _, err := g.AddTask(workload.NewPagerank(smallGraph(int64(i+1))), RolePrimary); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 2 << 20, Seed: int64(20 + i)}), RoleCorunner); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTwoGuestsRun(t *testing.T) {
	m := runTwoGuests(t)
	rep := m.Observe()
	if len(rep.Tasks) != 2 {
		t.Fatalf("got %d primary reports, want 2", len(rep.Tasks))
	}
	if rep.Tasks[0].Guest != 0 || rep.Tasks[1].Guest != 1 {
		t.Errorf("task guest indices = %d,%d", rep.Tasks[0].Guest, rep.Tasks[1].Guest)
	}
	if len(rep.Guests) != 2 {
		t.Fatalf("got %d guest reports, want 2", len(rep.Guests))
	}
	for i, gr := range rep.Guests {
		if gr.Index != i || gr.VMID != i+1 || !gr.Alive {
			t.Errorf("guest report %d = {Index:%d VMID:%d Alive:%v}", i, gr.Index, gr.VMID, gr.Alive)
		}
		if gr.Stats.Accesses == 0 || gr.Stats.Walker.Walks == 0 {
			t.Errorf("guest %d did no observable work: %+v", i, gr.Stats)
		}
		if gr.HostUserFrames == 0 || gr.MappedGuestPages == 0 {
			t.Errorf("guest %d has no host frames attributed", i)
		}
		if gr.Frag.Groups == 0 {
			t.Errorf("guest %d has no fragmentation groups", i)
		}
	}
	// Machine totals are the sums of the per-guest slices.
	whole := m.Snapshot()
	var accSum, walkSum uint64
	for _, g := range m.Guests() {
		gs := g.Snapshot()
		accSum += gs.Accesses
		walkSum += gs.Walker.Walks
	}
	if whole.Accesses != accSum {
		t.Errorf("machine accesses %d != guest sum %d", whole.Accesses, accSum)
	}
	if whole.Walker.Walks != walkSum {
		t.Errorf("machine walks %d != guest sum %d", whole.Walker.Walks, walkSum)
	}
	if rep.HostFrag.Groups != rep.Guests[0].Frag.Groups+rep.Guests[1].Frag.Groups {
		t.Errorf("host frag groups %d != per-guest sum", rep.HostFrag.Groups)
	}
	// Per-guest registry prefixes, shared groups unprefixed.
	names := m.Registry().Names()
	var sawVM0, sawVM1, sawCache bool
	for _, n := range names {
		switch {
		case len(n) > 4 && n[:4] == "vm0.":
			sawVM0 = true
		case len(n) > 4 && n[:4] == "vm1.":
			sawVM1 = true
		case len(n) > 6 && n[:6] == "cache.":
			sawCache = true
		case n == "machine.accesses" || (len(n) > 11 && n[:11] == "buddy.host."):
		default:
			t.Errorf("unexpected unprefixed counter %q on multi-guest machine", n)
		}
	}
	if !sawVM0 || !sawVM1 || !sawCache {
		t.Errorf("missing counter groups: vm0=%v vm1=%v cache=%v", sawVM0, sawVM1, sawCache)
	}
}

// TestTwoGuestsDeterministic runs the same two-guest scenario twice and
// requires identical counters — the cross-VM round-robin is part of the
// determinism contract.
func TestTwoGuestsDeterministic(t *testing.T) {
	a := runTwoGuests(t).Observe()
	b := runTwoGuests(t).Observe()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical multi-guest runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestGuestChurn boots a guest mid-run, then destroys another, and checks
// teardown frees host frames while machine totals stay monotonic.
func TestGuestChurn(t *testing.T) {
	m, err := NewHost(hostConfig2(guestos.PolicyDefault, guestos.PolicyPTEMagnet))
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Guests()[1]
	if _, err := m.Guests()[0].AddTask(workload.NewPagerank(smallGraph(1)), RolePrimary); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 4 << 20, Seed: 9}), RoleCorunner); err != nil {
		t.Fatal(err)
	}
	var freeAtKill, bootSeen uint64
	events := []RunEvent{
		{AtAccesses: 5_000, Do: func(m *Machine) error {
			g, err := m.AddGuest(GuestConfig{MemBytes: 32 << 20, Policy: guestos.PolicyPTEMagnet, Seed: 77})
			if err != nil {
				return err
			}
			bootSeen = uint64(g.Index())
			_, err = g.AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 2 << 20, Seed: 10}), RoleCorunner)
			return err
		}},
		{AtAccesses: 20_000, Do: func(m *Machine) error {
			freeAtKill = m.Host().Memory().FreeFrames()
			m.DestroyGuest(m.Guests()[1])
			return nil
		}},
	}
	if err := m.RunWith(context.Background(), WithEvents(events...)); err != nil {
		t.Fatal(err)
	}
	if bootSeen != 2 {
		t.Errorf("booted guest index = %d, want 2", bootSeen)
	}
	if victim.Alive() {
		t.Error("victim guest alive after churn event")
	}
	if got := m.Host().Memory().FreeFrames(); got <= freeAtKill {
		t.Errorf("teardown freed nothing: %d free before, %d after run", freeAtKill, got)
	}
	rep := m.Observe()
	if len(rep.Guests) != 3 {
		t.Fatalf("got %d guest reports, want 3 (dead guest keeps its slot)", len(rep.Guests))
	}
	dead := rep.Guests[1]
	if dead.Alive || dead.MappedGuestPages != 0 || dead.HostUserFrames != 0 {
		t.Errorf("dead guest report = %+v", dead)
	}
	if dead.Stats.Accesses == 0 {
		t.Error("dead guest's frozen counters lost")
	}
	if !rep.Guests[2].Alive || rep.Guests[2].Stats.Accesses == 0 {
		t.Errorf("late-booted guest did not run: %+v", rep.Guests[2])
	}
	// The host's VM list only holds the live VMs; ids never reused.
	vms := m.Host().VMs()
	if len(vms) != 2 {
		t.Fatalf("host tracks %d VMs, want 2", len(vms))
	}
	if vms[0].ID() != 1 || vms[1].ID() != 3 {
		t.Errorf("live VM ids = %d,%d, want 1,3", vms[0].ID(), vms[1].ID())
	}
}

// TestGuestChurnDeterministic repeats the churn scenario and requires
// identical observations.
func TestGuestChurnDeterministic(t *testing.T) {
	run := func() Report {
		m, err := NewHost(hostConfig2(guestos.PolicyDefault, guestos.PolicyDefault))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Guests()[0].AddTask(workload.NewPagerank(smallGraph(3)), RolePrimary); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Guests()[1].AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 4 << 20, Seed: 5}), RoleCorunner); err != nil {
			t.Fatal(err)
		}
		events := []RunEvent{{AtAccesses: 10_000, Do: func(m *Machine) error {
			m.DestroyGuest(m.Guests()[1])
			return nil
		}}}
		if err := m.RunWith(context.Background(), WithEvents(events...)); err != nil {
			t.Fatal(err)
		}
		return m.Observe()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("churn runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestAddTaskOnDeadGuestFails(t *testing.T) {
	m, err := NewHost(hostConfig2(guestos.PolicyDefault, guestos.PolicyDefault))
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guests()[1]
	m.DestroyGuest(g)
	if _, err := g.AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 1 << 20}), RoleCorunner); err == nil {
		t.Error("AddTask on destroyed guest succeeded")
	}
}

func TestHostConfigValidation(t *testing.T) {
	base := hostConfig2(guestos.PolicyDefault)
	noGuests := base
	noGuests.Guests = nil
	if _, err := NewHost(noGuests); err == nil {
		t.Error("HostConfig without guests accepted")
	}
	tooBig := base
	tooBig.Guests = []GuestConfig{{MemBytes: tooBig.HostMemBytes * 2}}
	if _, err := NewHost(tooBig); err == nil {
		t.Error("guest larger than host accepted")
	}
	// Overcommit of the sum is allowed.
	over := base
	over.Guests = []GuestConfig{{MemBytes: over.HostMemBytes}, {MemBytes: over.HostMemBytes}}
	if _, err := NewHost(over); err != nil {
		t.Errorf("overcommitted guest sum rejected: %v", err)
	}
}
