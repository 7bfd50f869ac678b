package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestForkDeterministicAndIndependent(t *testing.T) {
	mk := func() (*Rand, *Rand) {
		root := NewRand(7)
		return root.Fork("mac"), root.Fork("radio")
	}
	m1, r1 := mk()
	m2, r2 := mk()
	for i := 0; i < 100; i++ {
		if m1.Uint64() != m2.Uint64() || r1.Uint64() != r2.Uint64() {
			t.Fatal("forked streams are not reproducible")
		}
	}
	m3, r3 := mk()
	same := 0
	for i := 0; i < 100; i++ {
		if m3.Uint64() == r3.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling forks correlated: %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(4)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestBoolEdges(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	// Bool(0.5) should be roughly balanced.
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.5) {
			trues++
		}
	}
	if trues < 4500 || trues > 5500 {
		t.Fatalf("Bool(0.5) true-rate = %d/10000", trues)
	}
}

func TestJitter(t *testing.T) {
	r := NewRand(9)
	if r.Jitter(0) != 0 || r.Jitter(-time.Second) != 0 {
		t.Fatal("non-positive window must yield zero jitter")
	}
	for i := 0; i < 1000; i++ {
		j := r.Jitter(100 * time.Millisecond)
		if j < 0 || j >= 100*time.Millisecond {
			t.Fatalf("jitter %v out of window", j)
		}
	}
}

func TestEngineRandIsStable(t *testing.T) {
	e1, e2 := NewEngine(99), NewEngine(99)
	for i := 0; i < 10; i++ {
		if e1.Rand().Uint64() != e2.Rand().Uint64() {
			t.Fatal("engine root streams with equal seeds diverged")
		}
	}
}
