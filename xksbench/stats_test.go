package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestHDQuantile(t *testing.T) {
	// Uniform(0,1) samples: the estimate tracks the true quantile.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	for _, q := range []float64{0.5, 0.99} {
		if got := hdQuantile(append([]float64(nil), xs...), q); math.Abs(got-q) > 0.01 {
			t.Errorf("hdQuantile(q=%v) = %v", q, got)
		}
	}
	// The weights sum to one: a constant sample estimates itself.
	c := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	if got := hdQuantile(c, 0.99); math.Abs(got-7) > 1e-9 {
		t.Errorf("constant sample: %v", got)
	}
}
