package arena

import "testing"

func TestSliceAccounting(t *testing.T) {
	a := New()
	_ = Slice[int64](a, 100)
	if a.Bytes() != 800 {
		t.Fatalf("Bytes = %d, want 800", a.Bytes())
	}
	_ = Slice[bool](a, 10)
	if a.Bytes() != 810 {
		t.Fatalf("Bytes = %d, want 810", a.Bytes())
	}
}

func TestCarveIndependence(t *testing.T) {
	a := New()
	parts := Carve[int](a, 3, 2, 4)
	if len(parts) != 3 || len(parts[0]) != 3 || len(parts[1]) != 2 || len(parts[2]) != 4 {
		t.Fatalf("bad carve shape: %v", parts)
	}
	if a.Bytes() != 9*8 {
		t.Fatalf("Bytes = %d, want 72", a.Bytes())
	}
	// A full carve must spill on append, never write into its neighbour.
	parts[1] = append(parts[1], 99)
	if parts[2][0] != 0 {
		t.Fatalf("append past carve clobbered neighbour: %v", parts[2])
	}
	parts[0][0], parts[1][0], parts[2][3] = 1, 2, 3
	if parts[0][0] != 1 || parts[1][0] != 2 || parts[2][3] != 3 {
		t.Fatalf("carves do not hold writes")
	}
}
