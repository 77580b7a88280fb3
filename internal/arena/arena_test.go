package arena

import "testing"

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", Heap, false},
		{"heap", Heap, false},
		{"mmap", Mmap, false},
		{"disk", Heap, true},
	} {
		k, err := ParseKind(tc.in)
		if (err != nil) != tc.err || k != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, err=%v", tc.in, k, err, tc.want, tc.err)
		}
	}
}

func TestNilArenaIsHeap(t *testing.T) {
	var a *Arena
	s := Make[uint64](a, 100)
	if len(s) != 100 {
		t.Fatalf("Make len = %d, want 100", len(s))
	}
	s = append(Grow(a, s, 1), 7)
	if s[100] != 7 || len(s) != 101 {
		t.Fatalf("Grow+append: got len %d last %d", len(s), s[100])
	}
	Free(a, s)  // no-op
	a.Release() // no-op
	if a.Mapped() != 0 {
		t.Fatal("nil arena reports mapped bytes")
	}
	if New(Heap) != nil {
		t.Fatal("New(Heap) must return the nil heap stand-in")
	}
}

func TestMmapMakeGrowFree(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	defer func(old int) { MmapThreshold = old }(MmapThreshold)
	MmapThreshold = 64

	a := New(Mmap)
	if a == nil {
		t.Fatal("New(Mmap) = nil with mmap supported")
	}
	s := Make[uint64](a, 32) // 256 bytes ≥ threshold → mapped
	if a.Mapped() == 0 {
		t.Fatal("Make above threshold did not map")
	}
	for i := range s {
		s[i] = uint64(i) * 3
	}
	before := a.Mapped()
	s = Grow(a, s, 100) // forces relocation; old region must be unmapped
	if cap(s)-len(s) < 100 {
		t.Fatalf("Grow left cap %d len %d", cap(s), len(s))
	}
	for i := range s {
		if s[i] != uint64(i)*3 {
			t.Fatalf("Grow lost contents at %d: %d", i, s[i])
		}
	}
	if a.Mapped() <= before-256 {
		t.Fatalf("old region not replaced by a larger one: %d → %d", before, a.Mapped())
	}
	Free(a, s)
	if a.Mapped() != 0 {
		t.Fatalf("Free left %d bytes mapped", a.Mapped())
	}
	a.Release() // idempotent
}

func TestSmallStaysOnHeap(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	a := New(Mmap)
	s := Make[uint64](a, 8) // 64 bytes, far below the default threshold
	_ = s
	if a.Mapped() != 0 {
		t.Fatal("sub-threshold Make used a mapping")
	}
	a.Release()
}

func TestRelease(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	defer func(old int) { MmapThreshold = old }(MmapThreshold)
	MmapThreshold = 64
	a := New(Mmap)
	_ = Make[uint64](a, 64)
	_ = Make[uint32](a, 64)
	if a.Mapped() == 0 {
		t.Fatal("nothing mapped")
	}
	a.Release()
	if a.Mapped() != 0 {
		t.Fatalf("Release left %d bytes", a.Mapped())
	}
}
