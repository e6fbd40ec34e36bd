package lp

// The dense structural block is stored in column groups of four: group g
// holds columns 4g..4g+3 as m rows of four consecutive values, so
// A[i][j] sits at slab[(j/4·m + i)·4 + j%4]. The last group is padded
// with zero columns. One row of a group is one 32-byte vector, which the
// AVX2 kernel loads whole.

// groupLen is the slab length of a dense n-column, m-row block.
func groupLen(n, m int) int { return (n + 3) / 4 * 4 * m }

// slabAt is the slab offset of A[i][j].
func slabAt(i, j, m int) int { return (j/4*m+i)*4 + j%4 }

// kernelFunc prices whole column groups: d[j] = cost[j] − Σᵢ y[i]·a_j[i]
// for j < len(d), a multiple of 4, over the first len(d)/4 groups of the
// slab a.
type kernelFunc func(d, cost, y, a []float64)

// priceKernel is the kernel price uses, fixed at package init: the AVX2
// assembly kernel where the CPU and OS support it, else pricePortable.
// Both give the same bits. Tests swap it to compare them.
var priceKernel = pickKernel()

func pickKernel() kernelFunc {
	if avx2Kernel != nil {
		return avx2Kernel
	}
	return pricePortable
}

// price sets d[j] = cost[j] − Σᵢ y[i]·A[i][j] for every column j < len(d)
// of the slab. Every column subtracts its own terms one at a time in
// ascending row order, each product rounded before the subtraction, so
// d[j] is the bits of the column-at-a-time loop whichever kernel runs.
func price(d, cost, y, slab []float64) {
	n, m := len(d), len(y)
	full := n &^ 3
	priceKernel(d[:full], cost[:full], y, slab[:full*m])
	if full == n {
		return
	}
	// The last group is partial: price all four lanes, keep the real ones.
	var c [4]float64
	copy(c[:], cost[full:n])
	c[0], c[1], c[2], c[3] = priceGroup(c[0], c[1], c[2], c[3], y, slab[full*m:(full+4)*m])
	copy(d[full:], c[:n-full])
}

// pricePortable is the Go kernel, one column group at a time.
func pricePortable(d, cost, y, a []float64) {
	m := len(y)
	for j := 0; j+4 <= len(d); j += 4 {
		d[j], d[j+1], d[j+2], d[j+3] = priceGroup(cost[j], cost[j+1], cost[j+2], cost[j+3], y, a[j*m:(j+4)*m])
	}
}

// priceGroup subtracts y[i]·blk row i from the four running reduced
// costs of one column group, four rows a loop trip: four independent
// subtraction chains, each still in ascending row order.
func priceGroup(d0, d1, d2, d3 float64, y, blk []float64) (float64, float64, float64, float64) {
	for len(y) >= 4 && len(blk) >= 16 {
		r := (*[16]float64)(blk)
		y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
		d0 -= float64(y0 * r[0])
		d1 -= float64(y0 * r[1])
		d2 -= float64(y0 * r[2])
		d3 -= float64(y0 * r[3])
		d0 -= float64(y1 * r[4])
		d1 -= float64(y1 * r[5])
		d2 -= float64(y1 * r[6])
		d3 -= float64(y1 * r[7])
		d0 -= float64(y2 * r[8])
		d1 -= float64(y2 * r[9])
		d2 -= float64(y2 * r[10])
		d3 -= float64(y2 * r[11])
		d0 -= float64(y3 * r[12])
		d1 -= float64(y3 * r[13])
		d2 -= float64(y3 * r[14])
		d3 -= float64(y3 * r[15])
		y, blk = y[4:], blk[16:]
	}
	for len(y) >= 1 && len(blk) >= 4 {
		r := (*[4]float64)(blk)
		y0 := y[0]
		d0 -= float64(y0 * r[0])
		d1 -= float64(y0 * r[1])
		d2 -= float64(y0 * r[2])
		d3 -= float64(y0 * r[3])
		y, blk = y[1:], blk[4:]
	}
	return d0, d1, d2, d3
}
