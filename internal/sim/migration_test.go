package sim

import (
	"context"
	"testing"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
)

// migrationTestScale keeps the three-scenario sweep fast: each scenario
// runs a source to its pause point, migrates, and finishes on a busy
// destination host.
func migrationTestScale() Scale {
	return Scale{
		HostMemBytes:      64 << 20,
		GuestMemBytes:     32 << 20,
		DatasetBytes:      4 << 20,
		Accesses:          30_000,
		CorunnerFootprint: 2 << 20,
		LLCBytes:          128 << 10,
		L2Bytes:           64 << 10,
	}
}

// TestMigrationSweep runs the full sweep once and pins its shape and the
// paper-level claims: fragmentation travels with the guest image (the
// default guest stays fragmented after migration, the PTEMagnet guest
// stays packed), and the undersized dirty log forces rescans without
// changing the outcome.
func TestMigrationSweep(t *testing.T) {
	res, err := engine.Execute(context.Background(), nil, MigrationSet(migrationTestScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != len(migrationJobNames) {
		t.Fatalf("sweep produced %d entries, want %d", len(res.Entries), len(migrationJobNames))
	}
	byName := map[string]MigrationRunResult{}
	for i, e := range res.Entries {
		if e.Name != migrationJobNames[i] {
			t.Errorf("entry %d is %q, want %q", i, e.Name, migrationJobNames[i])
		}
		if e.Migration.PagesInitial == 0 || e.Migration.PagesCopied < e.Migration.PagesInitial {
			t.Errorf("%s: implausible migration report %+v", e.Name, e.Migration)
		}
		if e.PostAccesses == 0 {
			t.Errorf("%s: guest executed nothing on the destination", e.Name)
		}
		byName[e.Name] = e
	}
	def, mag, pml := byName["default"], byName["ptemagnet"], byName["ptemagnet/pml32"]
	if def.Scenario.Policy != guestos.PolicyDefault || mag.Scenario.Policy != guestos.PolicyPTEMagnet {
		t.Fatal("sweep scenarios mislabelled")
	}
	// §3.2: fragmentation is a property of the gva→gpa mapping, so it
	// survives the move in both directions.
	if def.FragAfter.Mean < 2 {
		t.Errorf("default guest defragmented by migration: frag %.2f → %.2f",
			def.FragBefore.Mean, def.FragAfter.Mean)
	}
	if mag.FragAfter.Mean > 1.2 {
		t.Errorf("PTEMagnet packing lost in migration: frag %.2f → %.2f",
			mag.FragBefore.Mean, mag.FragAfter.Mean)
	}
	if def.FragAfter.Mean <= mag.FragAfter.Mean {
		t.Errorf("post-migration frag default %.2f <= ptemagnet %.2f",
			def.FragAfter.Mean, mag.FragAfter.Mean)
	}
	// The 32-entry log must overflow on a multi-MB dataset, and the
	// fallback rescans must not change what gets copied in the end.
	if pml.Migration.LogOverflows == 0 {
		t.Error("32-entry dirty log never overflowed")
	}
	if mag.Migration.LogOverflows != 0 {
		t.Errorf("full-size dirty log overflowed %d times", mag.Migration.LogOverflows)
	}
	if pml.FragAfter != mag.FragAfter {
		t.Errorf("dirty-log sizing changed the final image: frag %+v vs %+v",
			pml.FragAfter, mag.FragAfter)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}
