package vm

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ptemagnet/internal/cache"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/tlb"
	"ptemagnet/internal/workload"
)

// hostConfig2 builds a fast two-guest host for tests.
func hostConfig2(policies ...guestos.AllocPolicy) HostConfig {
	hc := smallConfig(guestos.PolicyDefault)
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
		if gr.MappedGuestPages == 0 {
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
	if dead.Alive || dead.MappedGuestPages != 0 {
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

// TestHostNumCPUsSizesTheCaches pins HostConfig.NumCPUs as the one vCPU
// count: a Cache built for fewer CPUs gets the host's count, so the fifth
// task's private caches exist.
func TestHostNumCPUsSizesTheCaches(t *testing.T) {
	hc := smallConfig(guestos.PolicyDefault)
	hc.NumCPUs = 8
	hc.Cache = cache.DefaultConfig(4)
	m, err := NewHost(hc)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Hierarchy().Config().NumCPUs; got != 8 || m.HostConfig().NumCPUs != 8 {
		t.Fatalf("hierarchy has %d CPUs, host %d; want 8 and 8", got, m.HostConfig().NumCPUs)
	}
	for i := 0; i < 6; i++ {
		g := workload.GraphConfig{DatasetBytes: 1 << 20, Accesses: 2_000, Seed: int64(i + 1)}
		if _, err := m.AddTask(workload.NewPagerank(g), RolePrimary); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, task := range m.Tasks() {
		if !task.Done() {
			t.Errorf("task on vCPU %d did not finish", task.cpu)
		}
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

// hostConfigCase mutates smallConfig; field is the *ConfigError.Field path
// NewHost must reject it with, or "" when the config is valid.
type hostConfigCase struct {
	name   string
	mutate func(*HostConfig)
	field  string
}

// checkHostConfigCases asserts that NewHost and Validate agree on every case
// and that each rejection names the expected field path.
func checkHostConfigCases(t *testing.T, cases []hostConfigCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(guestos.PolicyDefault)
			tc.mutate(&cfg)
			_, err := NewHost(cfg)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				if verr := cfg.Validate(); verr != nil {
					t.Fatalf("Validate rejected a config NewHost accepts: %v", verr)
				}
				return
			}
			var cerr *ConfigError
			if !errors.As(err, &cerr) {
				t.Fatalf("NewHost error %v is not a *ConfigError", err)
			}
			if cerr.Field != tc.field {
				t.Errorf("Field = %q, want %q", cerr.Field, tc.field)
			}
			if cfg.Validate() == nil {
				t.Error("Validate accepted a config NewHost rejects")
			}
		})
	}
}

// TestConfigValidate pins the per-field contradictions of a one-guest
// HostConfig by the field path of its *ConfigError, and that zero-valued
// optional fields are defaults, not errors.
func TestConfigValidate(t *testing.T) {
	checkHostConfigCases(t, []hostConfigCase{
		{"zero host mem", func(c *HostConfig) { c.HostMemBytes = 0 }, "HostMemBytes"},
		{"zero guest mem", func(c *HostConfig) { c.Guests[0].MemBytes = 0 }, "Guests[0].MemBytes"},
		{"guest exceeds host", func(c *HostConfig) { c.Guests[0].MemBytes = c.HostMemBytes * 2 }, "Guests[0].MemBytes"},
		{"host mem not a page multiple", func(c *HostConfig) { c.HostMemBytes = 4097 }, "HostMemBytes"},
		{"guest mem not a page multiple", func(c *HostConfig) { c.Guests[0].MemBytes = 4097 }, "Guests[0].MemBytes"},
		{"host mem beyond the buddy's frame limit", func(c *HostConfig) { c.HostMemBytes = 16 << 40 }, "HostMemBytes"},
		{"guest mem of one page", func(c *HostConfig) { c.Guests[0].MemBytes = 4096 }, "Guests[0].MemBytes"},
		{"negative cpus", func(c *HostConfig) { c.NumCPUs = -1 }, "NumCPUs"},
		{"negative quantum", func(c *HostConfig) { c.Quantum = -4 }, "Quantum"},
		{"bad levels", func(c *HostConfig) { c.PTLevels = 3 }, "PTLevels"},
		{"watermark too high", func(c *HostConfig) { c.Guests[0].ReclaimWatermark = 1.5 }, "Guests[0].ReclaimWatermark"},
		{"bad magnet", func(c *HostConfig) { c.Guests[0].Magnet.GroupPages = 3 }, "GroupPages"},
		{"zero-value optional fields", func(c *HostConfig) {
			*c = HostConfig{HostMemBytes: 128 << 20, Guests: []GuestConfig{{MemBytes: 64 << 20}}}
		}, ""},
	})
}

// TestHostConfigGeometry pins that an explicit cache or walker geometry
// cache.Sets cannot hold is a *ConfigError naming the level by path, not a
// panic in the constructor, and that a Cache or Walker left zero is not
// checked.
func TestHostConfigGeometry(t *testing.T) {
	withCache := func(edit func(*cache.Config)) func(*HostConfig) {
		return func(c *HostConfig) {
			c.Cache = cache.DefaultConfig(1)
			edit(&c.Cache)
		}
	}
	withWalker := func(edit func(*nested.Config)) func(*HostConfig) {
		return func(c *HostConfig) {
			c.Walker = nested.DefaultConfig()
			edit(&c.Walker)
		}
	}
	checkHostConfigCases(t, []hostConfigCase{
		{"3 MB LLC", withCache(func(cc *cache.Config) { cc.LLC.SizeBytes = 3 << 20 }), "Cache.LLC.SizeBytes"},
		{"17-way L1", withCache(func(cc *cache.Config) {
			cc.L1 = cache.LevelConfig{SizeBytes: 17 * 64 * 64, Ways: 17}
		}), "Cache.L1.Ways"},
		{"zero-way L2", withCache(func(cc *cache.Config) { cc.L2.Ways = 0 }), "Cache.L2.Ways"},
		{"L1 smaller than a set", withCache(func(cc *cache.Config) { cc.L1.SizeBytes = 128 }), "Cache.L1.SizeBytes"},
		{"L2 size off the block grid", withCache(func(cc *cache.Config) { cc.L2.SizeBytes += 32 }), "Cache.L2.SizeBytes"},
		{"96-entry 8-way NTLB", withWalker(func(w *nested.Config) { w.NTLB = tlb.Config{Entries: 96, Ways: 8} }), "Walker.NTLB.Entries"},
		{"STLB entries off the way grid", withWalker(func(w *nested.Config) { w.TLB.L2.Entries = 1000 }), "Walker.TLB.L2.Entries"},
		{"empty host PWC", withWalker(func(w *nested.Config) { w.HostPWC.Entries = 0 }), "Walker.HostPWC.Entries"},
		{"17-way guest PWC", withWalker(func(w *nested.Config) { w.GuestPWC = tlb.Config{Entries: 34, Ways: 17} }), "Walker.GuestPWC.Ways"},
		{"explicit defaults", func(c *HostConfig) {
			c.Cache, c.Walker = cache.DefaultConfig(2), nested.DefaultConfig()
		}, ""},
		{"zero Cache and Walker select the defaults", func(c *HostConfig) {
			c.Cache = cache.Config{LLC: cache.LevelConfig{SizeBytes: 3 << 20, Ways: 17}}
			c.Walker = nested.Config{NTLB: tlb.Config{Entries: 96, Ways: 8}}
		}, ""},
	})
}

func TestNewValidation(t *testing.T) {
	checkHostConfigCases(t, []hostConfigCase{
		{"zero config", func(c *HostConfig) { *c = HostConfig{} }, "HostMemBytes"},
	})
}

// TestHostConfigValidation pins the contradictions that only a guest list
// can express, and that an overcommitted guest sum is accepted.
func TestHostConfigValidation(t *testing.T) {
	checkHostConfigCases(t, []hostConfigCase{
		{"no guests", func(c *HostConfig) { c.Guests = nil }, "Guests"},
		{"second guest exceeds host", func(c *HostConfig) {
			c.Guests = append(c.Guests, GuestConfig{MemBytes: c.HostMemBytes * 2})
		}, "Guests[1].MemBytes"},
		{"overcommitted guest sum", func(c *HostConfig) {
			c.Guests = []GuestConfig{{MemBytes: c.HostMemBytes}, {MemBytes: c.HostMemBytes}}
		}, ""},
	})
}
