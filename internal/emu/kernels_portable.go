//go:build !amd64 || purego

package emu

// A build without the assembly kernels has no overlay: the generated
// kernels run as they are, whatever the CPU.
var avx2Kernels []kernelSwap

func cpuHasAVX2FMA() bool { return false }
