package intset

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Set is a sorted, duplicate-free slice of ints. The zero value is the
// empty set and is ready to use.
type Set []int

// New returns a Set containing the given elements (deduplicated, sorted).
func New(elems ...int) Set {
	return FromSlice(elems)
}

// FromSlice returns a Set with the elements of s (deduplicated, sorted).
// The input slice is not modified.
func FromSlice(s []int) Set {
	if len(s) == 0 {
		return nil
	}
	out := make([]int, len(s))
	copy(out, s)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return Set(out[:w])
}

// FromMap returns a Set with the keys of m.
func FromMap(m map[int]bool) Set {
	out := make([]int, 0, len(m))
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return Set(out)
}

// Len returns the number of elements.
func (s Set) Len() int { return len(s) }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s) == 0 }

// Contains reports whether x is an element of s.
func (s Set) Contains(x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Add returns a set containing the elements of s plus x.
// s itself is not modified.
func (s Set) Add(x int) Set {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return s
	}
	out := make(Set, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	out = append(out, s[i:]...)
	return out
}

// Remove returns a set containing the elements of s minus x.
// s itself is not modified.
func (s Set) Remove(x int) Set {
	i := sort.SearchInts(s, x)
	if i >= len(s) || s[i] != x {
		return s
	}
	out := make(Set, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Union returns the union of s and t.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Inter returns the intersection of s and t.
func (s Set) Inter(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Diff returns the set difference s − t.
func (s Set) Diff(t Set) Set {
	var out Set
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j < len(t) && t[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j >= len(t) || t[j] != x {
			return false
		}
		j++
	}
	return true
}

// ProperSubsetOf reports whether s ⊊ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return len(s) < len(t) && s.SubsetOf(t)
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one element.
func (s Set) Intersects(t Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// InterLen returns |s ∩ t| without allocating.
func (s Set) InterLen(t Set) int {
	n := 0
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Key returns a canonical string usable as a map key: the elements in
// decimal, comma-separated.
func (s Set) Key() string {
	var small [64]byte // a short key builds on the stack: one allocation
	b := small[:0]
	for i, x := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// CompareKey orders s and t as s.Key() and t.Key() compare, without
// building either string: element by element, each as its decimal
// digits, a proper prefix first (so 10 sorts before 9, and 1 before 10),
// and a set that is a prefix of the other first. Elements must be
// non-negative, as node ids are.
func (s Set) CompareKey(t Set) int {
	for i := 0; i < len(s) && i < len(t); i++ {
		if c := compareDecimal(s[i], t[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(s), len(t))
}

// compareDecimal orders non-negative x and y as their decimal strings:
// cut the longer to the shorter's digit count, compare the numbers, and
// on a tie the shorter, a prefix of the other, comes first.
func compareDecimal(x, y int) int {
	if x == y {
		return 0
	}
	dx, dy := decimalDigits(x), decimalDigits(y)
	for d := dx; d < dy; d++ {
		y /= 10
	}
	for d := dy; d < dx; d++ {
		x /= 10
	}
	if c := cmp.Compare(x, y); c != 0 {
		return c
	}
	return cmp.Compare(dx, dy)
}

// decimalDigits returns the number of decimal digits of x ≥ 0.
func decimalDigits(x int) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// String renders the set as "{a, b, c}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte('}')
	return b.String()
}
