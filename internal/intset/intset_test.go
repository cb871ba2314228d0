package intset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromSlice(t *testing.T) {
	tests := []struct {
		name string
		in   []int
		want Set
	}{
		{"empty", nil, nil},
		{"single", []int{3}, Set{3}},
		{"sorted", []int{1, 2, 3}, Set{1, 2, 3}},
		{"unsorted", []int{3, 1, 2}, Set{1, 2, 3}},
		{"dups", []int{2, 1, 2, 1, 1}, Set{1, 2}},
		{"negatives", []int{0, -5, 5}, Set{-5, 0, 5}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := FromSlice(tc.in); !got.Equal(tc.want) {
				t.Errorf("FromSlice(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestFromSliceDoesNotMutateInput(t *testing.T) {
	in := []int{3, 1, 2}
	FromSlice(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestFromMap(t *testing.T) {
	got := FromMap(map[int]bool{1: true, 5: true, 3: false, 2: true})
	if !got.Equal(New(1, 2, 5)) {
		t.Errorf("FromMap = %v, want {1,2,5}", got)
	}
}

func TestContains(t *testing.T) {
	s := New(1, 3, 5)
	for _, x := range []int{1, 3, 5} {
		if !s.Contains(x) {
			t.Errorf("Contains(%d) = false, want true", x)
		}
	}
	for _, x := range []int{0, 2, 4, 6} {
		if s.Contains(x) {
			t.Errorf("Contains(%d) = true, want false", x)
		}
	}
	if Set(nil).Contains(0) {
		t.Error("empty set Contains(0) = true")
	}
}

func TestAddRemove(t *testing.T) {
	s := New(1, 3)
	s2 := s.Add(2)
	if !s2.Equal(New(1, 2, 3)) {
		t.Errorf("Add(2) = %v", s2)
	}
	if !s.Equal(New(1, 3)) {
		t.Errorf("Add mutated receiver: %v", s)
	}
	if got := s.Add(3); !got.Equal(s) {
		t.Errorf("Add existing = %v", got)
	}
	if got := s2.Remove(2); !got.Equal(s) {
		t.Errorf("Remove(2) = %v", got)
	}
	if got := s.Remove(7); !got.Equal(s) {
		t.Errorf("Remove absent = %v", got)
	}
}

func TestUnionInterDiff(t *testing.T) {
	a := New(1, 2, 3, 5)
	b := New(2, 4, 5, 6)
	if got := a.Union(b); !got.Equal(New(1, 2, 3, 4, 5, 6)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Inter(b); !got.Equal(New(2, 5)) {
		t.Errorf("Inter = %v", got)
	}
	if got := a.Diff(b); !got.Equal(New(1, 3)) {
		t.Errorf("Diff = %v", got)
	}
	if got := b.Diff(a); !got.Equal(New(4, 6)) {
		t.Errorf("Diff = %v", got)
	}
	if got := a.InterLen(b); got != 2 {
		t.Errorf("InterLen = %d, want 2", got)
	}
}

func TestSubset(t *testing.T) {
	if !New(1, 3).SubsetOf(New(1, 2, 3)) {
		t.Error("subset false negative")
	}
	if New(1, 4).SubsetOf(New(1, 2, 3)) {
		t.Error("subset false positive")
	}
	if !Set(nil).SubsetOf(New(1)) {
		t.Error("empty not subset")
	}
	if !New(1).SubsetOf(New(1)) {
		t.Error("set not subset of itself")
	}
	if New(1).ProperSubsetOf(New(1)) {
		t.Error("proper subset of itself")
	}
	if !New(1).ProperSubsetOf(New(1, 2)) {
		t.Error("proper subset false negative")
	}
}

func TestIntersects(t *testing.T) {
	if !New(1, 5).Intersects(New(5, 9)) {
		t.Error("Intersects false negative")
	}
	if New(1, 5).Intersects(New(2, 9)) {
		t.Error("Intersects false positive")
	}
	if Set(nil).Intersects(New(1)) {
		t.Error("empty intersects")
	}
}

func TestKeyString(t *testing.T) {
	s := New(3, 1, 2)
	if got := s.Key(); got != "1,2,3" {
		t.Errorf("Key = %q", got)
	}
	if got := s.String(); got != "{1, 2, 3}" {
		t.Errorf("String = %q", got)
	}
	if got := Set(nil).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// randomKeySet draws a set mixing 0, one-digit and many-digit elements.
func randomKeySet(r *rand.Rand) Set {
	elems := make([]int, r.Intn(6))
	for i := range elems {
		elems[i] = r.Intn([]int{2, 10, 120, 1 << 20, 1 << 40}[r.Intn(5)])
	}
	return FromSlice(elems)
}

// TestKeyMatchesFmt holds Key to a fmt rendering of the same format.
func TestKeyMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		s := randomKeySet(r)
		parts := make([]string, len(s))
		for j, x := range s {
			parts[j] = fmt.Sprintf("%d", x)
		}
		if got, want := s.Key(), strings.Join(parts, ","); got != want {
			t.Fatalf("Key(%v) = %q, want %q", []int(s), got, want)
		}
	}
}

// TestCompareKeyMatchesKeyOrder holds CompareKey to comparing the Key
// strings, on random sets and on the prefix cases (1 < 10 < 9).
func TestCompareKeyMatchesKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pairs := [][2]Set{{New(1), New(10)}, {New(10), New(9)}, {New(1, 2), New(1, 2, 3)}, {New(0, 10), New(0, 1)}, {nil, New(0)}}
	for i := 0; i < 5000; i++ {
		pairs = append(pairs, [2]Set{randomKeySet(r), randomKeySet(r)})
	}
	for _, pr := range pairs {
		s, u := pr[0], pr[1]
		if got, want := s.CompareKey(u), strings.Compare(s.Key(), u.Key()); got != want {
			t.Fatalf("%v.CompareKey(%v) = %d, want %d (keys %q, %q)", []int(s), []int(u), got, want, s.Key(), u.Key())
		}
	}
}

func TestClone(t *testing.T) {
	s := New(1, 2)
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone shares backing array")
	}
	if Set(nil).Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
}

// Property-based tests over random sets.

func randSet(r *rand.Rand) Set {
	n := r.Intn(12)
	m := map[int]bool{}
	for i := 0; i < n; i++ {
		m[r.Intn(20)] = true
	}
	return FromMap(m)
}

func TestQuickSetAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Union is commutative, intersection distributes, De Morgan-ish identities.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randSet(r), randSet(r), randSet(r)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Inter(b).Equal(b.Inter(a)) {
			return false
		}
		if !a.Inter(b.Union(c)).Equal(a.Inter(b).Union(a.Inter(c))) {
			return false
		}
		if !a.Diff(b).Union(a.Inter(b)).Equal(a) {
			return false
		}
		if a.Inter(b).Len() != a.InterLen(b) {
			return false
		}
		if a.Intersects(b) != (a.InterLen(b) > 0) {
			return false
		}
		if !a.Inter(b).SubsetOf(a) || !a.SubsetOf(a.Union(b)) {
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickSorted(t *testing.T) {
	err := quick.Check(func(xs []int) bool {
		s := FromSlice(xs)
		for i := 1; i < len(s); i++ {
			if s[i-1] >= s[i] {
				return false
			}
		}
		for _, x := range xs {
			if !s.Contains(x) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}
