package isa

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestFullMask(t *testing.T) {
	cases := []struct {
		n    int
		want ExecMask
	}{
		{0, 0}, {1, 1}, {2, 3}, {16, 0xFFFF}, {63, 0x7FFFFFFFFFFFFFFF}, {64, ^ExecMask(0)},
	}
	for _, c := range cases {
		if got := FullMask(c.n); got != c.want {
			t.Errorf("FullMask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestExecMaskBitOps(t *testing.T) {
	f := func(m uint64, lane uint8) bool {
		l := int(lane % 64)
		em := ExecMask(m)
		set := em.SetBit(l)
		clr := em.ClearBit(l)
		return set.Bit(l) && !clr.Bit(l) &&
			set.PopCount() == bits.OnesCount64(uint64(set)) &&
			clr.PopCount() == bits.OnesCount64(uint64(clr)) &&
			em.Any() == (m != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDataTypeProperties(t *testing.T) {
	for _, c := range []struct {
		t     DataType
		bits  int
		regs  int
		float bool
	}{
		{TypeNone, 0, 0, false}, {TypeB32, 32, 1, false}, {TypeU32, 32, 1, false},
		{TypeS32, 32, 1, false}, {TypeF32, 32, 1, true}, {TypeB64, 64, 2, false},
		{TypeU64, 64, 2, false}, {TypeS64, 64, 2, false}, {TypeF64, 64, 2, true},
	} {
		if c.t.Bits() != c.bits || c.t.Regs() != c.regs || c.t.IsFloat() != c.float {
			t.Errorf("%s: Bits=%d Regs=%d IsFloat=%t", c.t, c.t.Bits(), c.t.Regs(), c.t.IsFloat())
		}
	}
	if !TypeS32.IsSigned() || !TypeS64.IsSigned() || TypeU32.IsSigned() || TypeF32.IsSigned() {
		t.Error("IsSigned misclassifies")
	}
}

func TestCmpOpEvaluate(t *testing.T) {
	// Each operator against cmp results -1, 0, 1.
	want := map[CmpOp][3]bool{
		CmpEq: {false, true, false},
		CmpNe: {true, false, true},
		CmpLt: {true, false, false},
		CmpLe: {true, true, false},
		CmpGt: {false, false, true},
		CmpGe: {false, true, true},
	}
	for op, w := range want {
		for i, cmp := range []int{-1, 0, 1} {
			if got := op.Evaluate(cmp); got != w[i] {
				t.Errorf("%s.Evaluate(%d) = %t, want %t", op, cmp, got, w[i])
			}
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < NumCategories; c++ {
		s := Category(c).String()
		if s == "" || seen[s] {
			t.Errorf("category %d has bad/duplicate name %q", c, s)
		}
		seen[s] = true
	}
}

func TestPopCountMatchesLoop(t *testing.T) {
	loop := func(m ExecMask) int {
		n := 0
		for lane := 0; lane < WavefrontSize; lane++ {
			if m.Bit(lane) {
				n++
			}
		}
		return n
	}
	masks := []ExecMask{0, 1, 1 << 63, ^ExecMask(0), 0x8421, 0xAAAAAAAAAAAAAAAA, FullMask(17)}
	for i := ExecMask(1); i != 0; i = i*6364136223846793005 + 1442695040888963407 {
		if masks = append(masks, i); len(masks) > 1000 {
			break
		}
	}
	for _, m := range masks {
		if got, want := m.PopCount(), loop(m); got != want {
			t.Fatalf("PopCount(%#x) = %d, want %d", uint64(m), got, want)
		}
	}
}
