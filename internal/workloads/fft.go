package workloads

import (
	"math"

	"ilsim/internal/core"
	"ilsim/internal/finalizer"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// FFT performs an independent 8-point complex FFT per work-item, fully
// unrolled — the suite's compute-bound extreme: ~95% ALU instructions, no
// divides, very few branches, and many data-dependent CONDITIONAL MOVES
// (a running magnitude-maximum tracked for scaling). The kernel also spills
// intermediates through the SPILL segment, reproducing the paper's note that
// FFT "uses special segments to spill and fill because of its large register
// demands" (Table 6: the only footprint divergence besides LULESH).
func FFT() *Workload {
	return &Workload{
		Name:        "FFT",
		Description: "Digital signal processing",
		Prepare:     prepareFFT,
	}
}

const (
	fftPoints       = 8
	fftRotateRounds = 3
	fftRotate       = 0.1 // radians per rotation round
)

// fftPasses is the number of dynamic launches; the per-launch spill-segment
// remapping of HSAIL's emulated ABI only shows across repeated dispatches.
const fftPasses = 3

func prepareFFT(scale int) (*Instance, error) {
	grid := 512 * scale
	n := grid * fftPoints * fftPasses

	b := kernel.NewBuilder("fft8")
	inArg := b.ArgPtr("in")   // interleaved re,im
	outArg := b.ArgPtr("out") // interleaved re,im
	maxArg := b.ArgPtr("mag") // per-work-item running max magnitude
	b.SetSpillSize(8 * 4)     // spilled butterfly intermediates
	gid := b.WorkItemAbsID(isa.DimX)
	base := b.Mul(u64T, b.Cvt(u64T, gid), b.Int(u64T, fftPoints*8))
	inBase := b.Add(u64T, b.LoadArg(inArg), base)
	outBase := b.Add(u64T, b.LoadArg(outArg), base)

	// Load 8 complex points in bit-reversed order (DIT).
	rev := [fftPoints]int32{0, 4, 2, 6, 1, 5, 3, 7}
	var re, im [fftPoints]kernel.Val
	for i := 0; i < fftPoints; i++ {
		re[i] = b.Load(hsail.SegGlobal, f32T, inBase, rev[i]*8)
		im[i] = b.Load(hsail.SegGlobal, f32T, inBase, rev[i]*8+4)
	}
	mx := b.Mov(f32T, b.F32(0))
	trackMax := func(r, i kernel.Val) {
		m2 := b.Fma(f32T, r, r, b.Mul(f32T, i, i))
		c := b.Cmp(isa.CmpGt, f32T, m2, mx)
		b.CmovTo(mx, c, m2, mx)
	}
	butterfly := func(a, bIdx int, wr, wi float64) {
		// (t = w * x[b]; x[b] = x[a] - t; x[a] += t)
		tr := b.Sub(f32T, b.Mul(f32T, b.F32(float32(wr)), re[bIdx]), b.Mul(f32T, b.F32(float32(wi)), im[bIdx]))
		ti := b.Add(f32T, b.Mul(f32T, b.F32(float32(wr)), im[bIdx]), b.Mul(f32T, b.F32(float32(wi)), re[bIdx]))
		nr := b.Sub(f32T, re[a], tr)
		ni := b.Sub(f32T, im[a], ti)
		re[bIdx], im[bIdx] = nr, ni
		re[a] = b.Add(f32T, re[a], tr)
		im[a] = b.Add(f32T, im[a], ti)
	}
	stage := func(half int) {
		for k := 0; k < fftPoints; k += 2 * half {
			for j := 0; j < half; j++ {
				ang := -2 * math.Pi * float64(j) / float64(2*half)
				butterfly(k+j, k+j+half, math.Cos(ang), math.Sin(ang))
			}
		}
		// Track the running maximum once per stage (scaling guard).
		trackMax(re[0], im[0])
		trackMax(re[fftPoints/2], im[fftPoints/2])
	}
	stage(1)
	// Spill half the live values between stages and fill them back into
	// fresh virtual registers — the spill/fill traffic of a
	// register-pressured kernel.
	for i := 0; i < 4; i++ {
		b.Store(hsail.SegSpill, re[i], kernel.NoBase, int32(8*i))
		b.Store(hsail.SegSpill, im[i], kernel.NoBase, int32(8*i+4))
	}
	for i := 0; i < 4; i++ {
		re[i] = b.Load(hsail.SegSpill, f32T, kernel.NoBase, int32(8*i))
		im[i] = b.Load(hsail.SegSpill, f32T, kernel.NoBase, int32(8*i+4))
	}
	stage(2)
	stage(4)
	// Spectral-rotation rounds: pure register-resident ALU work (phase
	// correction), which is what makes FFT the suite's most compute-bound
	// member (~95% ALU, paper §V.A) and keeps its GCN3 expansion minimal.
	cr := float32(math.Cos(fftRotate))
	sr := float32(math.Sin(fftRotate))
	for round := 0; round < fftRotateRounds; round++ {
		for i := 0; i < fftPoints; i++ {
			nr := b.Sub(f32T, b.Mul(f32T, re[i], b.F32(cr)), b.Mul(f32T, im[i], b.F32(sr)))
			ni := b.Add(f32T, b.Mul(f32T, re[i], b.F32(sr)), b.Mul(f32T, im[i], b.F32(cr)))
			re[i], im[i] = nr, ni
		}
		trackMax(re[0], im[0])
	}
	for i := 0; i < fftPoints; i++ {
		b.Store(hsail.SegGlobal, re[i], outBase, int32(i*8))
		b.Store(hsail.SegGlobal, im[i], outBase, int32(i*8+4))
	}
	magAddr := gidByteOffset(b, gid, b.LoadArg(maxArg), 2)
	b.Store(hsail.SegGlobal, mx, magAddr, 0)
	b.Ret()
	ks, err := core.PrepareKernel(b.MustFinish(), finalizer.Options{})
	if err != nil {
		return nil, err
	}

	r := rng("FFT", scale)
	input := make([]float32, 2*n)
	for i := range input {
		input[i] = float32(r.Intn(256))/16 - 8
	}

	type bufs struct{ out buf }
	var state runState[bufs]
	inst := &Instance{Kernels: []*core.KernelSource{ks}}
	inst.Setup = func(m *core.Machine) error {
		inB := allocF32(m, input)
		outB := allocF32(m, make([]float32, 2*n))
		magB := allocF32(m, make([]float32, grid*fftPasses))
		state.put(m, bufs{out: outB})
		for p := 0; p < fftPasses; p++ {
			byteOff := uint64(p * grid * fftPoints * 8)
			if err := m.Submit(launch1D(ks, grid, 64,
				inB.addr+byteOff, outB.addr+byteOff, magB.addr+uint64(p*grid*4))); err != nil {
				return err
			}
		}
		return nil
	}
	inst.Check = func(m *core.Machine) error {
		s, err := state.take(m)
		if err != nil {
			return err
		}
		// Verify against a direct DFT with loose tolerance (different
		// summation order).
		for w := 0; w < grid*fftPasses; w += 37 { // sample work-items
			for k := 0; k < fftPoints; k++ {
				var wr, wi float64
				for t := 0; t < fftPoints; t++ {
					ang := -2 * math.Pi * float64(k*t) / fftPoints
					xr := float64(input[w*2*fftPoints+2*t])
					xi := float64(input[w*2*fftPoints+2*t+1])
					wr += xr*math.Cos(ang) - xi*math.Sin(ang)
					wi += xr*math.Sin(ang) + xi*math.Cos(ang)
				}
				// Apply the kernel's spectral rotation to the reference.
				theta := fftRotate * fftRotateRounds
				rr := wr*math.Cos(theta) - wi*math.Sin(theta)
				ri := wr*math.Sin(theta) + wi*math.Cos(theta)
				gotR := float64(s.out.f32(m, w*2*fftPoints+2*k))
				gotI := float64(s.out.f32(m, w*2*fftPoints+2*k+1))
				if err := checkClose("FFT.re", w*fftPoints+k, gotR, rr, 1e-3); err != nil {
					return err
				}
				if err := checkClose("FFT.im", w*fftPoints+k, gotI, ri, 1e-3); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst, nil
}
