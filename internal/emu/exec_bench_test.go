package emu

import (
	"math"
	"testing"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/stats"
)

// execShape is one instruction in one wavefront state: the unit both the
// layer benchmark and the allocation gate measure. Execute is called with
// the PC reset to the instruction each time, so ns/op is ns per instruction.
type execShape struct {
	name string
	eng  Engine
	w    *Wave
}

func (s *execShape) run() error {
	pc := s.w.PC
	_, err := s.eng.Execute(s.w)
	s.w.PC = pc
	return err
}

// track switches the shape's engine to full value and reuse tracking.
func (s *execShape) track() {
	col := &Collector{Run: &stats.Run{}, TrackValues: true, ValueSampleEvery: 1, TrackReuse: true}
	switch e := s.eng.(type) {
	case *HSAILEngine:
		e.Col = col
		s.w.Reuse = stats.NewReuseTracker(len(s.w.VRegs))
	case *GCN3Engine:
		e.Col = col
		s.w.Reuse = stats.NewReuseTracker(len(s.w.VGPR))
	}
}

const (
	sparse4 = isa.ExecMask(0x0000100000400201) // 4 active lanes
	sparse8 = isa.ExecMask(0x8040201008040201) // 8 active lanes
)

// execShapes builds the shapes that matter for host time: the f64 FMA,
// subtract, multiply, divide and reciprocal square root of the
// compute-bound workloads at full mask, GCN3's 32-bit carry chain and move,
// an integer add under a nearly empty mask (divergent code), 64-bit address
// arithmetic with a constant operand, the unit-stride f64 load, the
// scattered 32-bit gather, LDS traffic, a global store, and the scalar
// bookkeeping GCN3 interleaves.
func execShapesFor(tb testing.TB) []*execShape {
	var shapes []*execShape
	f64, u32, u64 := isa.TypeF64, isa.TypeU32, isa.TypeU64

	// fillLanes gives registers 2-7 of either file finite f64 pairs, and
	// registers 10-11 / 12-13 per-lane addresses: unit-stride 8-byte and
	// scattered 4-byte (one line per lane).
	fillLanes := func(regs []lanes, buf uint64) {
		for l := 0; l < isa.WavefrontSize; l++ {
			for r := 2; r < 8; r += 2 {
				v := math.Float64bits(1.25 + float64(l*r))
				regs[r][l], regs[r+1][l] = uint32(v), uint32(v>>32)
			}
			unit, scattered := buf+uint64(8*l), buf+uint64(68*((l*37)%64))
			regs[10][l], regs[11][l] = uint32(unit), uint32(unit>>32)
			regs[12][l], regs[13][l] = uint32(scattered), uint32(scattered>>32)
			regs[14][l] = uint32(4 * l) // LDS byte address
		}
	}

	hs := func(name string, exec isa.ExecMask, in hsail.Inst) {
		k := &hsail.Kernel{Name: name, NumRegSlots: 16, NumCRegs: 1, GroupSize: 512,
			Blocks: []*hsail.Block{{ID: 0, Insts: []hsail.Inst{in, {Op: hsail.OpRet}}}}}
		eng, w := hsailEngineFor(tb, k)
		fillLanes(w.VRegs, eng.Ctx.AllocBuffer(8192))
		w.Exec = exec
		shapes = append(shapes, &execShape{name: "hsail/" + name, eng: eng, w: w})
	}
	full := isa.FullMask(64)
	r := hsail.Reg
	hs("fma_f64_full", full, hsail.Inst{Op: hsail.OpFma, Type: f64, Dst: r(8), Srcs: [3]hsail.Operand{r(2), r(4), r(6)}, NSrc: 3})
	hs("sub_f64_full", full, hsail.Inst{Op: hsail.OpSub, Type: f64, Dst: r(8), Srcs: [3]hsail.Operand{r(2), r(4)}, NSrc: 2})
	hs("mul_f64_full", full, hsail.Inst{Op: hsail.OpMul, Type: f64, Dst: r(8), Srcs: [3]hsail.Operand{r(2), r(4)}, NSrc: 2})
	hs("div_f64_full", full, hsail.Inst{Op: hsail.OpDiv, Type: f64, Dst: r(8), Srcs: [3]hsail.Operand{r(2), r(4)}, NSrc: 2})
	hs("rsqrt_f64_full", full, hsail.Inst{Op: hsail.OpRsqrt, Type: f64, Dst: r(8), Srcs: [3]hsail.Operand{r(2)}, NSrc: 1})
	hs("add_u32_4lanes", sparse4, hsail.Inst{Op: hsail.OpAdd, Type: u32, Dst: r(8), Srcs: [3]hsail.Operand{r(2), r(4)}, NSrc: 2})
	hs("shl_u64_const", full, hsail.Inst{Op: hsail.OpShl, Type: u64, Dst: r(8), Srcs: [3]hsail.Operand{r(2), hsail.Imm(3)}, NSrc: 2})
	hs("ld_f64_unit_full", full, hsail.Inst{Op: hsail.OpLd, Type: f64, Seg: hsail.SegGlobal, Dst: r(8), Addr: hsail.MemAddr{Base: r(10)}})
	hs("ld_u32_gather_8lanes", sparse8, hsail.Inst{Op: hsail.OpLd, Type: u32, Seg: hsail.SegGlobal, Dst: r(8), Addr: hsail.MemAddr{Base: r(12)}})
	hs("st_f64_unit_full", full, hsail.Inst{Op: hsail.OpSt, Type: f64, Seg: hsail.SegGlobal, Srcs: [3]hsail.Operand{r(2)}, NSrc: 1, Addr: hsail.MemAddr{Base: r(10)}})
	hs("ld_group_u32_full", full, hsail.Inst{Op: hsail.OpLd, Type: u32, Seg: hsail.SegGroup, Dst: r(8), Addr: hsail.MemAddr{Base: r(14)}})
	hs("nop", full, hsail.Inst{Op: hsail.OpNop})

	gs := func(name string, exec isa.ExecMask, in gcn3.Inst) {
		eng, w := engineFor(tb, []gcn3.Inst{in, {Op: gcn3.OpSEndpgm}})
		w.WG.LDS = make([]byte, 512)
		fillLanes(w.VGPR, eng.Ctx.AllocBuffer(8192))
		w.Exec = exec
		shapes = append(shapes, &execShape{name: "gcn3/" + name, eng: eng, w: w})
	}
	v, s := gcn3.VReg, gcn3.SReg
	gs("fma_f64_full", full, gcn3.Inst{Op: gcn3.OpVFma, Type: f64, Dst: v(8), Srcs: [3]gcn3.Operand{v(2), v(4), v(6)}})
	gs("addc_u32_full", full, gcn3.Inst{Op: gcn3.OpVAddc, Type: u32, Dst: v(9), SDst: gcn3.VCC(), Srcs: [3]gcn3.Operand{v(3), v(5)}})
	gs("add_u32_co_full", full, gcn3.Inst{Op: gcn3.OpVAdd, Type: u32, Dst: v(8), SDst: gcn3.VCC(), Srcs: [3]gcn3.Operand{v(2), v(4)}})
	gs("mov_b32_full", full, gcn3.Inst{Op: gcn3.OpVMov, Type: isa.TypeB32, Dst: v(8), Srcs: [3]gcn3.Operand{v(2)}})
	gs("add_u32_4lanes", sparse4, gcn3.Inst{Op: gcn3.OpVAdd, Type: u32, Dst: v(8), SDst: gcn3.VCC(), Srcs: [3]gcn3.Operand{s(20), v(4)}})
	gs("lshl_b64_const", full, gcn3.Inst{Op: gcn3.OpVLshl, Type: isa.TypeB64, Dst: v(8), Srcs: [3]gcn3.Operand{gcn3.Inline(3), v(2)}})
	gs("flat_load_x2_unit_full", full, gcn3.Inst{Op: gcn3.OpFlatLoadDwordx2, Dst: v(8), Srcs: [3]gcn3.Operand{v(10)}})
	gs("flat_load_gather_8lanes", sparse8, gcn3.Inst{Op: gcn3.OpFlatLoadDword, Dst: v(8), Srcs: [3]gcn3.Operand{v(12)}})
	gs("flat_store_x2_unit_full", full, gcn3.Inst{Op: gcn3.OpFlatStoreDwordx2, Srcs: [3]gcn3.Operand{v(10), v(2)}})
	gs("ds_read_b32_full", full, gcn3.Inst{Op: gcn3.OpDSReadB32, Dst: v(8), Srcs: [3]gcn3.Operand{v(14)}})
	gs("s_mov_b32", full, gcn3.Inst{Op: gcn3.OpSMov, Type: isa.TypeB32, Dst: s(30), Srcs: [3]gcn3.Operand{s(20)}})
	gs("s_nop", full, gcn3.Inst{Op: gcn3.OpSNop})
	return shapes
}

// BenchmarkExecute is the functional-emulation layer benchmark: ns/op is
// host nanoseconds per executed instruction, untracked.
func BenchmarkExecute(b *testing.B) {
	for _, s := range execShapesFor(b) {
		s := s
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestExecuteNoAllocs: in steady state Execute allocates nothing, for ALU,
// scalar, global load/store and LDS instructions, whether or not the
// collector is tracking register values and reuse. A full-mask shape runs
// under a sparse mask too, so a kernel with a full-wave fast path
// (kernels_amd64.go) is held to it on both of its paths.
func TestExecuteNoAllocs(t *testing.T) {
	for _, tracked := range []bool{false, true} {
		for _, s := range execShapesFor(t) {
			if tracked {
				s.track()
			}
			masks := []isa.ExecMask{s.w.Exec}
			if s.w.Exec == isa.FullMask(64) {
				masks = append(masks, sparse8)
			}
			for _, m := range masks {
				s.w.Exec = m
				for i := 0; i < 3; i++ { // grow linesBuf, fault pages in, size the histogram
					if err := s.run(); err != nil {
						t.Fatalf("%s exec %#x: %v", s.name, m, err)
					}
				}
				if n := testing.AllocsPerRun(100, func() { _ = s.run() }); n != 0 {
					t.Errorf("%s exec %#x (tracked=%v): %v allocs per instruction, want 0", s.name, m, tracked, n)
				}
			}
		}
	}
}
