package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(0)
	if s.Len() != 0 || s.Count() != 0 || s.Any() {
		t.Fatalf("zero-capacity set not empty: len=%d count=%d", s.Len(), s.Count())
	}
}

func TestSetHasClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Errorf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Has(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Clear(64)
	if s.Has(64) {
		t.Error("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count after clear = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Set-neg":   func() { s.Set(-1) },
		"Set-high":  func() { s.Set(10) },
		"Has-high":  func() { s.Has(10) },
		"Clear-neg": func() { s.Clear(-1) },
		"New-neg":   func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestUnionWith(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	b.Set(70)
	b.Set(3)
	if !a.UnionWith(b) {
		t.Error("UnionWith did not report change")
	}
	if !a.Has(3) || !a.Has(70) {
		t.Error("union missing bits")
	}
	if a.UnionWith(b) {
		t.Error("second UnionWith reported change for subset")
	}
}

func TestUnionCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on capacity mismatch")
		}
	}()
	New(64).UnionWith(New(65))
}

func TestCopyFrom(t *testing.T) {
	s, u := New(130), New(130)
	s.Set(5)
	u.Set(99)
	s.CopyFrom(u)
	if s.Has(5) || !s.Has(99) || !s.Equal(u) {
		t.Errorf("CopyFrom did not overwrite: %v vs %v", s, u)
	}
	u.Set(1)
	if s.Has(1) {
		t.Error("CopyFrom aliased the source words")
	}
}

func TestUnionCount(t *testing.T) {
	s, u := New(130), New(130)
	s.Set(0)
	s.Set(64)
	u.Set(64)
	u.Set(129)
	if got := s.UnionCount(u); got != 3 {
		t.Errorf("UnionCount = %d, want 3", got)
	}
	// And it must not modify either operand.
	if s.Count() != 2 || u.Count() != 2 {
		t.Errorf("UnionCount mutated operands: %d, %d bits", s.Count(), u.Count())
	}
}

func TestIntersectsWith(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(10)
	b.Set(11)
	if a.IntersectsWith(b) {
		t.Error("disjoint sets reported as intersecting")
	}
	b.Set(10)
	if !a.IntersectsWith(b) {
		t.Error("overlapping sets reported as disjoint")
	}
}

func TestCloneEqualReset(t *testing.T) {
	a := New(90)
	a.Set(5)
	a.Set(89)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal to original")
	}
	b.Set(6)
	if a.Equal(b) {
		t.Fatal("mutating clone affected equality with original unexpectedly")
	}
	if a.Has(6) {
		t.Fatal("clone shares storage with original")
	}
	a.Reset()
	if a.Any() || a.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
	if a.Len() != 90 {
		t.Fatal("Reset changed capacity")
	}
}

func TestEqualDifferentCapacity(t *testing.T) {
	if New(64).Equal(New(65)) {
		t.Fatal("sets of different capacities reported equal")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{0, 1, 64, 100, 199}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
}

func TestNextSet(t *testing.T) {
	s := New(200)
	s.Set(5)
	s.Set(64)
	s.Set(199)
	cases := []struct{ from, want int }{
		{-3, 5}, {0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {200, -1},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := New(10).NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d, want -1", got)
	}
}

// TestQuickModel checks the bitset against a map-based model under random
// operation sequences.
func TestQuickModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		model := map[int]bool{}
		for k := 0; k < 200; k++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Set(i)
				model[i] = true
			case 1:
				s.Clear(i)
				delete(model, i)
			case 2:
				if s.Has(i) != model[i] {
					return false
				}
			}
		}
		if s.Count() != len(model) {
			return false
		}
		seen := 0
		ok := true
		s.ForEach(func(i int) {
			seen++
			if !model[i] {
				ok = false
			}
		})
		return ok && seen == len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnionIsUpperBound checks that a ∪ b contains exactly the bits of
// both operands, and that UnionCount counts that union without building it.
func TestQuickUnionIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(256)
		a, b := New(n), New(n)
		for k := 0; k < n/2; k++ {
			a.Set(rng.Intn(n))
			b.Set(rng.Intn(n))
		}
		aOrig := a.Clone()
		a.UnionWith(b)
		if aOrig.UnionCount(b) != a.Count() {
			return false
		}
		for i := 0; i < n; i++ {
			want := aOrig.Has(i) || b.Has(i)
			if a.Has(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
