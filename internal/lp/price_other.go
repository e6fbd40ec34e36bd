//go:build !amd64

package lp

// avx2Kernel is nil off amd64: pricePortable prices every column.
var avx2Kernel kernelFunc
