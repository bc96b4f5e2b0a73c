package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDiurnalCDFEndpoints(t *testing.T) {
	d := newDiurnal(7*24*time.Hour, 0.4)
	if got := d.cdf(0); math.Abs(got) > 1e-9 {
		t.Errorf("cdf(0) = %v", got)
	}
	if got := d.cdf(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("cdf(1) = %v", got)
	}
}

func TestDiurnalWarpInvertsCDF(t *testing.T) {
	d := newDiurnal(24*time.Hour, 0.6)
	for u := 0.0; u <= 1.0; u += 0.01 {
		x := d.warp(u)
		if x < 0 || x > 1 {
			t.Fatalf("warp(%v) = %v out of range", u, x)
		}
		if got := d.cdf(x); math.Abs(got-u) > 1e-6 {
			t.Errorf("cdf(warp(%v)) = %v", u, got)
		}
	}
}

func TestDiurnalZeroAmplitudeIsIdentity(t *testing.T) {
	d := newDiurnal(24*time.Hour, 0)
	for _, u := range []float64{0, 0.25, 0.5, 0.99} {
		if d.warp(u) != u {
			t.Errorf("warp(%v) = %v", u, d.warp(u))
		}
	}
}

func TestDiurnalClampsAmplitude(t *testing.T) {
	d := newDiurnal(24*time.Hour, 5)
	if d.amplitude > 0.95 {
		t.Errorf("amplitude = %v", d.amplitude)
	}
	d = newDiurnal(24*time.Hour, -3)
	if d.amplitude != 0 {
		t.Errorf("amplitude = %v", d.amplitude)
	}
}

func TestPropertyDiurnalWarpMonotone(t *testing.T) {
	d := newDiurnal(7*24*time.Hour, 0.5)
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return d.warp(a) <= d.warp(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
