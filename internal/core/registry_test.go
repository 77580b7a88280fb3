package core

import (
	"strings"
	"testing"
)

func TestRegistryNamesUniqueAndConstructible(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range KnownFactories() {
		if seen[e.Name] {
			t.Fatalf("duplicate registry name %q", e.Name)
		}
		seen[e.Name] = true
		if p := e.New(); p == nil {
			t.Fatalf("%s: nil predictor", e.Name)
		}
		if e.Desc == "" {
			t.Errorf("%s: empty description", e.Name)
		}
	}
}

func TestRegistryCoversStandardFactories(t *testing.T) {
	for _, f := range StandardFactories() {
		if _, ok := FactoryByName(f.Name); !ok {
			t.Fatalf("standard factory %q missing from registry", f.Name)
		}
	}
}

func TestParseFactories(t *testing.T) {
	fs, err := ParseFactories(" l , s2,fcm3 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 || fs[0].Name != "l" || fs[1].Name != "s2" || fs[2].Name != "fcm3" {
		t.Fatalf("parsed %+v", fs)
	}
	for _, bad := range []string{"", "l,,s2", "l,l", "nope"} {
		if _, err := ParseFactories(bad); err == nil {
			t.Errorf("ParseFactories(%q): expected error", bad)
		}
	}
	if _, err := ParseFactories("zzz"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown-name error should list known names, got %v", err)
	}
}

func TestRegistryFreshInstances(t *testing.T) {
	// Two instances from the same factory must not share tables.
	e, _ := FactoryByName("l")
	a, b := e.New(), e.New()
	a.Update(1, 42)
	if _, ok := b.Predict(1); ok {
		t.Fatal("factory instances share state")
	}
}
