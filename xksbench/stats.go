package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (sorted in place); NaN for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowed splits time-ordered samples into consecutive windows of at
// least minWin samples (at most 5 windows) and returns the median of the
// windows' Harrell-Davis q-quantiles, so a burst of machine noise in one
// window does not move the result. Fewer than 2*minWin samples make one
// window.
func windowed(xs []float64, q float64, minWin int) float64 {
	n := max(1, min(5, len(xs)/minWin))
	var qs []float64
	for i := 0; i < n; i++ {
		w := append([]float64(nil), xs[i*len(xs)/n:(i+1)*len(xs)/n]...)
		qs = append(qs, hdQuantile(w, q))
	}
	return median(qs)
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of xs
// (sorted in place): a Beta(q(n+1), (1-q)(n+1))-weighted mean of the
// order statistics. Near the tail it draws on the few dozen samples
// around the nearest-rank one instead of one sample, which makes it much
// less sensitive to which requests happened to land there.
func hdQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := float64(len(xs))
	a, b := q*(n+1), (1-q)*(n+1)
	sum, prev := 0.0, 0.0
	for i, x := range xs {
		cur := betaInc(a, b, float64(i+1)/n)
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (betacf).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 2000; m++ {
		fm, m2 := float64(m), float64(2*m)
		aa := fm * (b - fm) * x / ((a - 1 + m2) * (a + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + fm) * (a + b + fm) * x / ((a + m2) * (a + 1 + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-13 {
			break
		}
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
