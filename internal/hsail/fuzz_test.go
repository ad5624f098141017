package hsail_test

import (
	"reflect"
	"strings"
	"testing"

	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/kernel/randkernel"
)

// FuzzDecodeBRIG feeds DecodeBRIG arbitrary bytes. It must never panic —
// not even inside the String method of an instruction its error names, a
// panic fmt would swallow — and whatever it accepts must re-encode with
// EncodeBRIG and decode again to an equal kernel. The corpus starts from the containers of a small builder
// kernel, before and after register allocation, and of the smallest of the
// first thirty generated kernels; small seeds keep the fuzzer mutating
// rather than minimizing.
func FuzzDecodeBRIG(f *testing.F) {
	seeds := []func() (*hsail.Kernel, error){
		func() (*hsail.Kernel, error) { return smallKernel().FinishRaw() },
		func() (*hsail.Kernel, error) { return smallKernel().Finish() },
		func() (*hsail.Kernel, error) { return randkernel.Gen(24, false) },
	}
	for _, build := range seeds {
		k, err := build()
		if err != nil {
			f.Fatal(err)
		}
		data, err := hsail.EncodeBRIG(k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := hsail.DecodeBRIG(data)
		if err != nil {
			if strings.Contains(err.Error(), "PANIC=") {
				t.Fatalf("formatting the decode error panicked: %v", err)
			}
			return
		}
		again, err := hsail.EncodeBRIG(k)
		if err != nil {
			t.Fatalf("a decoded kernel does not re-encode: %v", err)
		}
		k2, err := hsail.DecodeBRIG(again)
		if err != nil {
			t.Fatalf("a re-encoded kernel does not decode: %v", err)
		}
		if !reflect.DeepEqual(k, k2) {
			t.Fatalf("the round trip changed the kernel:\n%s\n---\n%s", k.Disassemble(), k2.Disassemble())
		}
	})
}

// smallKernel builds out[gid] = in[gid] < gid ? in[gid]+1 : in[gid]: an
// argument load, a global load and store, a compare and a branch.
func smallKernel() *kernel.Builder {
	b := kernel.NewBuilder("small")
	in, out := b.ArgPtr("in"), b.ArgPtr("out")
	gid := b.WorkItemAbsID(isa.DimX)
	off := b.Shl(isa.TypeU64, b.Cvt(isa.TypeU64, gid), b.Int(isa.TypeU64, 2))
	x := b.Load(hsail.SegGlobal, isa.TypeU32, b.Add(isa.TypeU64, b.LoadArg(in), off), 0)
	b.IfCmp(isa.CmpLt, isa.TypeU32, x, gid, func() {
		b.BinaryTo(hsail.OpAdd, x, x, b.Int(isa.TypeU32, 1))
	}, nil)
	b.Store(hsail.SegGlobal, x, b.Add(isa.TypeU64, b.LoadArg(out), off), 0)
	b.Ret()
	return b
}
