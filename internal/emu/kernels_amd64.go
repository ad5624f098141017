//go:build amd64 && !purego

package emu

// The AVX2 overlay: on a CPU with AVX2, FMA and OS-enabled YMM state, the
// full-EXEC path of the kernels below runs in assembly (kernels_amd64.s).
// Each wrapper hands any other execution mask to the generated kernel it
// replaces, so a partial wavefront computes exactly what it always did.
// Every replaced operation is an IEEE per-lane operation or a
// single-rounding FMA, so both paths agree bit for bit apart from NaN
// payloads (DESIGN.md, "Functional engines").

//go:noescape
func fmaF64AVX2(x *laneArgs)

//go:noescape
func subF64AVX2(x *laneArgs)

//go:noescape
func mulF64AVX2(x *laneArgs)

//go:noescape
func divF64AVX2(x *laneArgs)

//go:noescape
func rsqrtF64AVX2(x *laneArgs)

//go:noescape
func addU64AVX2(x *laneArgs)

//go:noescape
func shlU64AVX2(x *laneArgs)

//go:noescape
func mov64AVX2(x *laneArgs)

//go:noescape
func mov32AVX2(x *laneArgs)

//go:noescape
func addCOAVX2(x *laneArgs) uint64

//go:noescape
func addCAVX2(x *laneArgs) uint64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2FMA reports whether the CPU implements AVX2 and FMA and the
// operating system saves the YMM registers across context switches.
func cpuHasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2 // XCR0: SSE and AVX state enabled
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// avx2Kernels pairs every generated kernel the overlay replaces with its
// wrapper.
var avx2Kernels = []kernelSwap{
	{kFmaF64, kFmaF64AVX2},
	{kSubF64, kSubF64AVX2},
	{kMulF64, kMulF64AVX2},
	{kDivF64, kDivF64AVX2},
	{kRsqrtF64, kRsqrtF64AVX2},
	{kAddU64, kAddU64AVX2},
	{kShlU64, kShlU64AVX2},
	{kMov64, kMov64AVX2},
	{kMov32, kMov32AVX2},
	{kAddCO, kAddCOAVX2},
	{kAddC, kAddCAVX2},
}

func init() {
	if cpuHasAVX2FMA() {
		installKernels(avx2Kernels)
	}
}

func kFmaF64AVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kFmaF64(x, exec)
	}
	fmaF64AVX2(x)
	return 0
}

func kSubF64AVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kSubF64(x, exec)
	}
	subF64AVX2(x)
	return 0
}

func kMulF64AVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kMulF64(x, exec)
	}
	mulF64AVX2(x)
	return 0
}

func kDivF64AVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kDivF64(x, exec)
	}
	divF64AVX2(x)
	return 0
}

func kRsqrtF64AVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kRsqrtF64(x, exec)
	}
	rsqrtF64AVX2(x)
	return 0
}

func kAddU64AVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kAddU64(x, exec)
	}
	addU64AVX2(x)
	return 0
}

func kShlU64AVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kShlU64(x, exec)
	}
	shlU64AVX2(x)
	return 0
}

func kMov64AVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kMov64(x, exec)
	}
	mov64AVX2(x)
	return 0
}

func kMov32AVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kMov32(x, exec)
	}
	mov32AVX2(x)
	return 0
}

func kAddCOAVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kAddCO(x, exec)
	}
	return addCOAVX2(x)
}

func kAddCAVX2(x *laneArgs, exec uint64) uint64 {
	if exec != fullExec {
		return kAddC(x, exec)
	}
	return addCAVX2(x)
}
