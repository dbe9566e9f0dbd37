package main

import (
	"math"
	"testing"
)

// Each check must catch one deliberately wrong output: a check that cannot
// fail shows nothing.

func TestCheckImageCatchesFlippedPixel(t *testing.T) {
	want := escapeImage(paperRegion, 32, 32, 64)
	got := append([]uint16(nil), want...)
	deposits := make([]int32, 16)
	for i := range deposits {
		deposits[i] = 1
	}
	if err := checkImage(got, want, deposits); err != nil {
		t.Fatalf("correct image rejected: %v", err)
	}
	got[517] ^= 1
	if checkImage(got, want, deposits) == nil {
		t.Fatal("flipped pixel not caught")
	}
	got[517] ^= 1
	deposits[3] = 2
	if checkImage(got, want, deposits) == nil {
		t.Fatal("block deposited twice not caught")
	}
}

// The escape-time blocks the workers carry must assemble into the direct
// image, so the two computations agree where they should.
func TestEscapeBlocksAssembleImage(t *testing.T) {
	const size, grid, limit = 40, 4, 50
	want := escapeImage(paperRegion, size, size, limit)
	for _, b := range blocks(size, size, grid) {
		data := escapeBlock(paperRegion, size, size, b, limit)
		i := 0
		for y := b.y0; y < b.y0+b.h; y++ {
			for x := b.x0; x < b.x0+b.w; x++ {
				if got := uint16(data[i]) | uint16(data[i+1])<<8; got != want[y*size+x] {
					t.Fatalf("block %v pixel (%d,%d) = %d, want %d", b, x, y, got, want[y*size+x])
				}
				i += 2
			}
		}
	}
}

func TestCheckMatrixCatchesPerturbedEntry(t *testing.T) {
	const n = 8
	a, b := make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7)-3, float64(i%5)-2
	}
	want := tripleLoop(a, b, n)
	got := append([]float64(nil), want...)
	got[10] += 1e-12 // reordered summation: within tolerance
	if err := checkMatrix(got, want); err != nil {
		t.Fatalf("rounding difference rejected: %v", err)
	}
	got[10] += 1e-3
	if checkMatrix(got, want) == nil {
		t.Fatal("perturbed entry not caught")
	}
	got[10] = math.NaN()
	if checkMatrix(got, want) == nil {
		t.Fatal("NaN entry not caught")
	}
}

func TestCheckVisitsCatchesMissingVisit(t *testing.T) {
	if err := checkVisits(400, 400); err != nil {
		t.Fatalf("correct count rejected: %v", err)
	}
	if checkVisits(399, 400) == nil {
		t.Fatal("missing visit not caught")
	}
}

func TestCheckDepositCatchesWrongOrMissingResult(t *testing.T) {
	want := computeKernel(-0.7, 0.01, 0.2)
	if err := checkDeposit(1, 1, want, want); err != nil {
		t.Fatalf("correct deposit rejected: %v", err)
	}
	if checkDeposit(1, 1, want+1, want) == nil {
		t.Fatal("wrong result not caught")
	}
	if checkDeposit(1, 0, 0, want) == nil {
		t.Fatal("missing deposit not caught")
	}
}

func TestCheckMakespansCatchesShift(t *testing.T) {
	first := []int64{1000, 2000, 3000}
	if err := checkMakespans(first, []int64{1000, 2000, 3000}); err != nil {
		t.Fatalf("repeated makespans rejected: %v", err)
	}
	if checkMakespans(first, []int64{1000, 2001, 3000}) == nil {
		t.Fatal("shifted makespan not caught")
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which is
// how the spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{5, 1, 3, 2, 8, 9, 4, 7, 6, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCrossingFitsPowerLine(t *testing.T) {
	rates := []float64{1000, 2000, 4000}
	// p99 = rate/200 exactly: the line reaches 15 at 3000 and, followed
	// past the top step, 40 at 8000.
	if got := crossing(rates, []float64{5, 10, 20}, 15); math.Abs(got-3000) > 1e-6 {
		t.Errorf("crossing = %v, want 3000", got)
	}
	if got := crossing(rates, []float64{5, 10, 20}, 40); math.Abs(got-8000) > 1e-6 {
		t.Errorf("past the ladder: crossing = %v, want 8000", got)
	}
	// An infinite step is left out of the fit.
	if got := crossing(rates, []float64{5, 10, math.Inf(1)}, 15); math.Abs(got-3000) > 1e-6 {
		t.Errorf("infinite step: crossing = %v, want 3000", got)
	}
	// A ladder whose p99 does not rise gives the top rate.
	if got := crossing(rates, []float64{10, 10, 10}, 20); got != 4000 {
		t.Errorf("flat ladder: crossing = %v, want 4000", got)
	}
}

func TestTailIsMedianOfWindows(t *testing.T) {
	// Under 2*windowOps ops: the plain percentile.
	xs := make([]float64, 2*windowOps-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got, want := tail(xs, 0.9), percentile(xs, 0.9); got != want {
		t.Errorf("short run: tail = %v, want %v", got, want)
	}
	// Ten windows of 1 ms ops, one of them stalled: the stall moves the
	// plain p99 but not the median window's.
	xs = make([]float64, 10*windowOps)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < windowOps; i++ {
		xs[3*windowOps+i] = 25
	}
	if got := tail(xs, 0.99); got != 1 {
		t.Errorf("stalled window: tail = %v, want 1", got)
	}
	if percentile(xs, 0.99) != 25 {
		t.Error("the plain p99 should see the stall")
	}
}
