//go:build amd64 && !purego

package stats

import "ilsim/internal/isa"

// uniqueAVX512 is UniqueCount's AVX-512 kernel (unique_amd64.s): the number
// of distinct values among the lanes of vals set in mask, which has at
// least one lane set.
//
//go:noescape
func uniqueAVX512(vals *[isa.WavefrontSize]uint32, mask uint64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX512 reports whether the CPU implements AVX-512F and POPCNT and
// the operating system saves the opmask and ZMM registers across context
// switches.
func cpuHasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave = 1 << 23, 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave) != popcnt|osxsave {
		return false
	}
	// XCR0: SSE, AVX, opmask, upper ZMM0-15 and ZMM16-31 state enabled.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// uniqueSIMD is the vector kernel, nil on a CPU that cannot run it.
var uniqueSIMD func(vals *[isa.WavefrontSize]uint32, mask uint64) int

func init() {
	if cpuHasAVX512() {
		uniqueSIMD = uniqueAVX512
	}
}
