package burst

import "testing"

func TestBitmapBasics(t *testing.T) {
	var b Bitmap
	b.Reset(130)
	if !b.Empty() || b.Count() != 0 || b.n != 130 {
		t.Fatalf("fresh bitmap: empty=%v count=%d len=%d", b.Empty(), b.Count(), b.n)
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 || b.Empty() {
		t.Fatalf("count = %d", b.Count())
	}
	if !b.Test(63) || b.Test(62) {
		t.Fatal("Test wrong")
	}
	b.Clear(63)
	if b.Test(63) || b.Count() != 3 {
		t.Fatal("Clear wrong")
	}
}

func TestBitmapSetAll(t *testing.T) {
	var b Bitmap
	for _, n := range []int{1, 63, 64, 65, 256} {
		b.Reset(n)
		b.SetAll()
		if b.Count() != n {
			t.Fatalf("SetAll(%d): count = %d", n, b.Count())
		}
		if b.Test(n-1) != true {
			t.Fatalf("SetAll(%d): top bit unset", n)
		}
	}
}

func TestBitmapReuseClears(t *testing.T) {
	var b Bitmap
	b.Reset(70)
	b.SetAll()
	b.Reset(70)
	if !b.Empty() {
		t.Fatal("Reset did not clear")
	}
}

func TestBitmapAndNot(t *testing.T) {
	var a, c Bitmap
	a.Reset(100)
	c.Reset(100)
	for _, i := range []int{1, 50, 64, 99} {
		a.Set(i)
	}
	c.Set(50)
	c.Set(99)
	got := a.AndNot(&c, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 64 {
		t.Fatalf("AndNot = %v", got)
	}
}

func TestBitmapOr(t *testing.T) {
	var a, c Bitmap
	a.Reset(100)
	c.Reset(100)
	a.Set(1)
	a.Set(64)
	c.Set(64)
	c.Set(99)
	a.Or(&c)
	if a.Count() != 3 || !a.Test(1) || !a.Test(64) || !a.Test(99) {
		t.Fatalf("Or left %d bits set", a.Count())
	}
}

func TestBitmapDeal(t *testing.T) {
	var b Bitmap
	b.Reset(130)
	keys := make([]uint64, 130)
	for i := range keys {
		keys[i] = uint64(i%3) << 8
	}
	for _, i := range []int{0, 1, 2, 64, 65, 129} {
		b.Set(i)
	}
	for round := 0; round < 2; round++ { // the second round reuses the parts
		parts := b.Deal(keys, 8, 3)
		if len(parts) != 4 || !b.Empty() {
			t.Fatalf("Deal returned %d parts, left %d bits behind", len(parts), b.Count())
		}
		for p, want := range [][]int{{0, 129}, {1, 64}, {2, 65}, nil} {
			if got := parts[p].AndNot(&b, nil); len(got) != len(want) || (len(want) == 2 && (got[0] != want[0] || got[1] != want[1])) {
				t.Fatalf("part %d = %v, want %v", p, got, want)
			}
			b.Or(&parts[p])
		}
		if b.Count() != 6 {
			t.Fatalf("parts OR back to %d bits, want 6", b.Count())
		}
	}
}

func TestBitmapCopyFrom(t *testing.T) {
	var a, b Bitmap
	a.Reset(80)
	a.Set(7)
	a.Set(77)
	b.CopyFrom(&a)
	if b.n != 80 || b.Count() != 2 || !b.Test(77) {
		t.Fatal("CopyFrom mismatch")
	}
	b.Clear(77)
	if !a.Test(77) {
		t.Fatal("CopyFrom aliases storage")
	}
}
