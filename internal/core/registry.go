package core

import (
	"fmt"
	"sort"
	"strings"
)

// NamedFactory is a Factory plus the one-line description harnesses
// show when they expose a predictor by name.
type NamedFactory struct {
	Factory
	// Desc is a one-line description for -help style listings.
	Desc string
}

// registry is the single catalog of predictor spellings shared by
// cmd/vptrace, cmd/vpserve and the load generator. Order is the listing
// order used in help output.
var registry = []NamedFactory{
	{Factory{"l", func() Predictor { return NewLastValue() }}, "last value, always update"},
	{Factory{"s", func() Predictor { return NewStrideSimple() }}, "stride, always update"},
	{Factory{"s2", func() Predictor { return NewStride2Delta() }}, "2-delta stride"},
	{Factory{"fcm1", func() Predictor { return NewFCM(1) }}, "order-1 FCM, blended"},
	{Factory{"fcm2", func() Predictor { return NewFCM(2) }}, "order-2 FCM, blended"},
	{Factory{"fcm3", func() Predictor { return NewFCM(3) }}, "order-3 FCM, blended"},
	{Factory{"fcm3nb", func() Predictor { return NewFCMNoBlend(3) }}, "order-3 FCM, no blending"},
}

// StandardFactories returns the predictor set the paper evaluates in
// Figures 3-7, as registry entries in bank order: last value (always
// update), 2-delta stride, and FCM of orders 1, 2 and 3.
func StandardFactories() []NamedFactory {
	fs, err := ParseFactories("l,s2,fcm1,fcm2,fcm3")
	if err != nil {
		panic(err) // every name is a registry entry above
	}
	return fs
}

// KnownFactories returns the full predictor catalog in listing order. The
// returned slice is a copy; entries are safe to retain.
func KnownFactories() []NamedFactory {
	out := make([]NamedFactory, len(registry))
	copy(out, registry)
	return out
}

// KnownNames returns every registered predictor name, sorted.
func KnownNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	sort.Strings(names)
	return names
}

// FactoryByName looks up one predictor by its registry name.
func FactoryByName(name string) (NamedFactory, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return NamedFactory{}, false
}

// ParseFactories resolves a comma-separated predictor list ("l,s2,fcm3")
// against the registry, preserving order. Whitespace around names is
// ignored; empty elements and duplicates are errors.
func ParseFactories(spec string) ([]NamedFactory, error) {
	var out []NamedFactory
	seen := make(map[string]bool)
	for _, raw := range strings.Split(spec, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, fmt.Errorf("core: empty predictor name in %q", spec)
		}
		if seen[name] {
			return nil, fmt.Errorf("core: duplicate predictor %q", name)
		}
		seen[name] = true
		e, ok := FactoryByName(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown predictor %q (known: %s)",
				name, strings.Join(KnownNames(), ", "))
		}
		out = append(out, e)
	}
	return out, nil
}
