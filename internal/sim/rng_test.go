package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	if NewRNG(42).Uint64() == NewRNG(43).Uint64() {
		t.Fatal("different seeds produced the same first value")
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	z, m := NewRNG(0), NewRNG(0x9e3779b97f4a7c15)
	for i := 0; i < 10; i++ {
		if z.Uint64() != m.Uint64() {
			t.Fatalf("zero seed not remapped to the documented constant (step %d)", i)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if v := r.Int63n(1e12); v < 0 || v >= 1e12 {
			t.Fatalf("Int63n(1e12) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			NewRNG(1).Intn(n)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Int63n(0) did not panic")
			}
		}()
		NewRNG(1).Int63n(0)
	}()
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean %g implausible for a uniform stream", mean)
	}
}

func TestRNGFork(t *testing.T) {
	c := NewRNG(42)
	d := c.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked stream tracks parent (%d/100 equal)", same)
	}
}
