package main

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The reference computations below are written apart from the runtime:
// they share no code with internal/mandel or internal/matmul, so a fault
// there cannot cancel out of a check.

// region is the complex-plane window of a Mandelbrot image.
type region struct{ xmin, ymin, xmax, ymax float64 }

// paperRegion is the window of the paper's Fig. 4 images.
var paperRegion = region{-2.0, -1.2, 0.4, 1.2}

// block is a rectangle of pixels [x0, x0+w) x [y0, y0+h).
type block struct{ x0, y0, w, h int }

// blocks splits a width x height image into grid x grid blocks, edge
// blocks absorbing remainders.
func blocks(width, height, grid int) []block {
	var out []block
	for by := 0; by < grid; by++ {
		for bx := 0; bx < grid; bx++ {
			x0, x1 := bx*width/grid, (bx+1)*width/grid
			y0, y1 := by*height/grid, (by+1)*height/grid
			out = append(out, block{x0, y0, x1 - x0, y1 - y0})
		}
	}
	return out
}

// escape is the escape-time count of c = cr + ci·i: the first n with
// |z_n| > 2, capped at limit.
func escape(cr, ci float64, limit int) int {
	zr, zi := 0.0, 0.0
	n := 0
	for ; n < limit; n++ {
		zr2, zi2 := zr*zr, zi*zi
		if zr2+zi2 > 4 {
			break
		}
		zi = 2*zr*zi + ci
		zr = zr2 - zi2 + cr
	}
	return n
}

// pixelC returns the complex point at the centre of pixel (x, y).
func pixelC(r region, width, height, x, y int) (float64, float64) {
	dx := (r.xmax - r.xmin) / float64(width)
	dy := (r.ymax - r.ymin) / float64(height)
	return r.xmin + (float64(x)+0.5)*dx, r.ymin + (float64(y)+0.5)*dy
}

// escapeBlock computes one block as little-endian uint16 counts, row-major:
// the bytes a worker Messenger carries back to the centre.
func escapeBlock(r region, width, height int, b block, limit int) []byte {
	out := make([]byte, 2*b.w*b.h)
	i := 0
	for y := b.y0; y < b.y0+b.h; y++ {
		for x := b.x0; x < b.x0+b.w; x++ {
			cr, ci := pixelC(r, width, height, x, y)
			binary.LittleEndian.PutUint16(out[i:], uint16(escape(cr, ci, limit)))
			i += 2
		}
	}
	return out
}

// escapeImage computes a whole image directly.
func escapeImage(r region, width, height, limit int) []uint16 {
	img := make([]uint16, width*height)
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			cr, ci := pixelC(r, width, height, x, y)
			img[y*width+x] = uint16(escape(cr, ci, limit))
		}
	}
	return img
}

// checkImage requires every block deposited exactly once (when deposits
// are counted) and the image to equal the direct computation pixel for
// pixel.
func checkImage(got, want []uint16, deposits []int32) error {
	for t, n := range deposits {
		if n != 1 {
			return fmt.Errorf("block %d deposited %d times", t, n)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("image has %d pixels, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("pixel %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// matTol is the relative tolerance of matrix checks: block algorithms sum
// partial products in another order than the triple loop, which moves the
// last few bits of each entry and nothing more.
const matTol = 1e-9

// tripleLoop returns the n x n row-major product a·b.
func tripleLoop(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

// checkMatrix requires got to match want within matTol of want's largest
// entry.
func checkMatrix(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("matrix has %d entries, want %d", len(got), len(want))
	}
	scale := 0.0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= matTol*scale) {
			return fmt.Errorf("entry %d is %g, want %g (relative error %.3g > %g)", i, got[i], want[i], d/scale, matTol)
		}
	}
	return nil
}

// checkVisits requires the ring's node-visit total to equal the visits the
// admitted sessions make: sessions x hops for the walkers.
func checkVisits(visits, want int64) error {
	if visits != want {
		return fmt.Errorf("ring nodes counted %d visits, want %d", visits, want)
	}
	return nil
}

// checkDeposit requires a session to have deposited exactly once, the
// value computed in Go.
func checkDeposit(sid int64, count int32, got, want int64) error {
	if count != 1 {
		return fmt.Errorf("session %d deposited %d times", sid, count)
	}
	if got != want {
		return fmt.Errorf("session %d deposited %d, want %d", sid, got, want)
	}
	return nil
}

// checkMakespans requires every simulated makespan of an op to equal the
// first op's: the simulated testbed is deterministic.
func checkMakespans(first, got []int64) error {
	if len(first) != len(got) {
		return fmt.Errorf("%d makespans, want %d", len(got), len(first))
	}
	for i := range first {
		if got[i] != first[i] {
			return fmt.Errorf("makespan %d is %d ns, first op had %d ns", i, got[i], first[i])
		}
	}
	return nil
}
