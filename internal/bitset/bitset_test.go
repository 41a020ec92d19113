package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(200)
	if !s.Empty() || s.Count() != 0 || s.Len() != 200 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(199)
	if s.Count() != 4 || s.Empty() {
		t.Fatalf("count = %d", s.Count())
	}
	for _, i := range []int{0, 63, 64, 199} {
		if !s.Has(i) {
			t.Fatalf("missing bit %d", i)
		}
	}
	if s.Has(1) || s.Has(65) {
		t.Fatal("spurious bit")
	}
	s.Remove(63)
	if s.Has(63) || s.Count() != 3 {
		t.Fatal("remove failed")
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("clear failed")
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := New(128), New(128)
	a.Add(1)
	a.Add(2)
	a.Add(100)
	b.Add(2)
	b.Add(100)
	b.Add(101)

	u := a.Clone()
	u.Or(b)
	if u.Count() != 4 {
		t.Fatalf("or count = %d", u.Count())
	}
	x := a.Clone()
	x.And(b)
	if x.Count() != 2 || !x.Has(2) || !x.Has(100) {
		t.Fatalf("and wrong")
	}
	d := a.Clone()
	d.AndNot(b)
	if d.Count() != 1 || !d.Has(1) {
		t.Fatal("andnot wrong")
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Fatalf("intersection count = %d", got)
	}
	if !x.SubsetOf(a) || !x.SubsetOf(b) || a.SubsetOf(b) {
		t.Fatal("subset wrong")
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Fatal("equal wrong")
	}
	if a.Equal(New(64)) {
		t.Fatal("different capacity must not be equal")
	}
}

func TestMembersAndNextSet(t *testing.T) {
	s := New(300)
	want := []int{3, 64, 65, 192, 299}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Members(nil)
	if len(got) != len(want) {
		t.Fatalf("members = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
	if s.NextSet(0) != 3 || s.NextSet(3) != 3 || s.NextSet(4) != 64 ||
		s.NextSet(66) != 192 || s.NextSet(293) != 299 || s.NextSet(300) != -1 {
		t.Fatal("NextSet wrong")
	}
	empty := New(100)
	if empty.NextSet(0) != -1 {
		t.Fatal("NextSet on empty must be -1")
	}
}

func TestPropAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + r.Intn(500)
		s := New(n)
		ref := map[int]bool{}
		for op := 0; op < 100; op++ {
			i := r.Intn(n)
			switch r.Intn(3) {
			case 0:
				s.Add(i)
				ref[i] = true
			case 1:
				s.Remove(i)
				delete(ref, i)
			case 2:
				if s.Has(i) != ref[i] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, m := range s.Members(nil) {
			if !ref[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropDeMorgan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		n := 64 + r.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n/3; i++ {
			a.Add(r.Intn(n))
			b.Add(r.Intn(n))
		}
		// |a∪b| = |a| + |b| - |a∩b|
		u := a.Clone()
		u.Or(b)
		if u.Count() != a.Count()+b.Count()-a.IntersectionCount(b) {
			return false
		}
		// a\b and a∩b partition a.
		d := a.Clone()
		d.AndNot(b)
		x := a.Clone()
		x.And(b)
		if d.IntersectionCount(x) != 0 || d.Count()+x.Count() != a.Count() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(200)
	for _, i := range []int{0, 63, 64, 130, 199} {
		a.Add(i)
	}
	// Copy into a smaller scratch set: storage must grow.
	s := New(10)
	s.CopyFrom(a)
	if !s.Equal(a) || s.Len() != 200 {
		t.Fatalf("CopyFrom into smaller set: %v (len %d)", s, s.Len())
	}
	// Copy into a larger scratch set: capacity reused, contents exact.
	big := New(1000)
	big.Add(777)
	big.CopyFrom(a)
	if !big.Equal(a) || big.Len() != 200 {
		t.Fatal("CopyFrom into larger set left stale state")
	}
	// Mutating the copy must not touch the source.
	big.Add(5)
	if a.Has(5) {
		t.Fatal("CopyFrom aliases the source words")
	}
}

func TestFingerprintSubsetFilter(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 64 + r.Intn(300)
		b := New(n)
		for i := 0; i < n/2; i++ {
			b.Add(r.Intn(n))
		}
		// A genuine subset must never be filtered out.
		a := b.Clone()
		for i := 0; i < n/4; i++ {
			a.Remove(r.Intn(n))
		}
		return a.Fingerprint()&^b.Fingerprint() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// The filter rejects at least the obvious non-subset.
	a, b := New(64), New(64)
	a.Add(3)
	b.Add(4)
	if a.Fingerprint()&^b.Fingerprint() == 0 {
		t.Fatal("disjoint singleton sets share a fingerprint")
	}
}

func TestCountingOpsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
			}
		}
		diff := a.Clone()
		diff.AndNot(b)
		if got := a.AndNotCount(b); got != diff.Count() {
			t.Fatalf("AndNotCount = %d, want %d", got, diff.Count())
		}
		uni := a.Clone()
		uni.Or(b)
		var fused Set
		fused.SetOr(a, b)
		if !fused.Equal(uni) {
			t.Fatalf("SetOr mismatch")
		}
		fused.SetAndNot(a, b)
		if !fused.Equal(diff) {
			t.Fatalf("SetAndNot mismatch")
		}
		// Fused ops must also overwrite stale contents when reused.
		fused.SetOr(b, a)
		if !fused.Equal(uni) {
			t.Fatalf("SetOr reuse mismatch")
		}
	}
}

func TestPool(t *testing.T) {
	var p Pool
	s := p.Get(100)
	if s.Len() != 100 || !s.Empty() {
		t.Fatalf("Get: len=%d empty=%v", s.Len(), s.Empty())
	}
	s.Add(7)
	p.Put(s)
	// A recycled set must come back cleared even at a different size.
	r := p.Get(64)
	if r.Len() != 64 || !r.Empty() {
		t.Fatalf("recycled Get: len=%d empty=%v", r.Len(), r.Empty())
	}
	src := New(200)
	src.Add(3)
	src.Add(199)
	c := p.CloneOf(src)
	if !c.Equal(src) {
		t.Fatalf("CloneOf = %v bits, want equal", c.Count())
	}
	c.Add(100)
	if src.Has(100) {
		t.Fatal("CloneOf aliases source")
	}
	p.Put(c)
	p.Put(nil) // must not panic
}
