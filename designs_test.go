package dhtm_test

import (
	"testing"

	"dhtm"
	"dhtm/internal/harness"
	"dhtm/internal/registry"
)

// TestDesignSetCannotDrift is the regression test for the design-set drift
// the registry refactor fixed (the public package used to miss DHTM-nobuf
// while the harness listed it). The public dhtm package, the harness and
// the registry must expose exactly the same design set — trivially true now
// that all three read the registry, which is precisely the property this
// test pins.
func TestDesignSetCannotDrift(t *testing.T) {
	reg := registry.DesignNames()
	pub := dhtm.Designs()
	har := harness.Designs()
	if len(pub) != len(reg) || len(har) != len(reg) {
		t.Fatalf("set sizes differ: public %d, harness %d, registry %d", len(pub), len(har), len(reg))
	}
	for i, name := range reg {
		if string(pub[i]) != name {
			t.Errorf("public design %d = %q, registry has %q", i, pub[i], name)
		}
		if har[i] != name {
			t.Errorf("harness design %d = %q, registry has %q", i, har[i], name)
		}
	}

	// Every exported constant is a registered design — including DHTM-nobuf,
	// the one the public switch used to silently lack.
	for _, c := range []dhtm.Design{
		dhtm.DHTM, dhtm.DHTMInstant, dhtm.DHTML1, dhtm.DHTMNoBuf,
		dhtm.SO, dhtm.SdTM, dhtm.ATOM, dhtm.LogTMATOM, dhtm.NP,
	} {
		if _, ok := registry.LookupDesign(string(c)); !ok {
			t.Errorf("exported constant %q is not in the registry", c)
		}
	}
	if len(pub) != 9 {
		t.Errorf("public design set has %d entries, want 9 (did a constant go unexported?)", len(pub))
	}

	// The catalog carries a description for everything the public API lists.
	for _, entry := range dhtm.Catalog() {
		if entry.Description == "" {
			t.Errorf("design %q has no description", entry.Name)
		}
	}
}

// TestNewSystemAcceptsEveryDesign builds a system for every design the
// public API lists — NewSystem resolves through the registry, so a listed
// design that fails to construct would be a catalog bug — and checks that
// its runtime reports the design's own name (results and timelines carry it).
func TestNewSystemAcceptsEveryDesign(t *testing.T) {
	for _, d := range dhtm.Designs() {
		sys, err := dhtm.NewSystem(dhtm.Config{Design: d, Cores: 2})
		if err != nil {
			t.Fatalf("NewSystem(%q): %v", d, err)
		}
		if sys.Design() != d {
			t.Fatalf("system reports design %q, want %q", sys.Design(), d)
		}
		if name := sys.Runtime().Name(); name != string(d) {
			t.Errorf("runtime of design %q names itself %q", d, name)
		}
	}
	if _, err := dhtm.NewSystem(dhtm.Config{Design: "NOPE"}); err == nil {
		t.Fatal("NewSystem accepted an unknown design")
	}
}
