package gcn3

import (
	"encoding/binary"
	"fmt"
	"math"

	"ilsim/internal/isa"
)

// This file implements the binary codec for GCN3-like programs; the formats'
// bit layouts are declared in layout.go. Like real GCN3, the operation's data
// type is folded into the format's opcode field: a deterministic registry
// enumerates every legal (op, type, srcType, cmp) combination per format.

// comboKey identifies an encodable operation variant.
type comboKey struct {
	op      Op
	typ     isa.DataType
	srcType isa.DataType
	cmp     isa.CmpOp
}

var (
	comboToCode map[comboKey]uint16
	codeToCombo [NumFormats][]comboKey
)

// legalCombos returns the encodable variants of op in deterministic order.
func legalCombos(op Op) []comboKey {
	types := func(ts ...isa.DataType) []comboKey {
		ks := make([]comboKey, len(ts))
		for i, t := range ts {
			ks[i] = comboKey{op: op, typ: t}
		}
		return ks
	}
	cmps := func(ts ...isa.DataType) []comboKey {
		var ks []comboKey
		for _, t := range ts {
			for c := isa.CmpEq; c <= isa.CmpGe; c++ {
				ks = append(ks, comboKey{op: op, typ: t, cmp: c})
			}
		}
		return ks
	}
	const (
		b32 = isa.TypeB32
		b64 = isa.TypeB64
		u32 = isa.TypeU32
		s32 = isa.TypeS32
		u64 = isa.TypeU64
		s64 = isa.TypeS64
		f32 = isa.TypeF32
		f64 = isa.TypeF64
	)
	switch op {
	case OpSMov, OpSNot, OpSAnd, OpSOr, OpSXor:
		return types(b32, b64)
	case OpSAndSaveexec, OpSOrSaveexec, OpSAndN2:
		return types(b64)
	case OpSAdd, OpSSub, OpSBfe, OpSAddc:
		return types(u32)
	case OpSMul, OpSAshr:
		return types(s32)
	case OpSLshl, OpSLshr:
		return types(b32)
	case OpSCmp:
		return cmps(u32, s32)
	case OpSEndpgm, OpSBranch, OpSCbranchSCC0, OpSCbranchSCC1,
		OpSCbranchVCCZ, OpSCbranchVCCNZ, OpSCbranchExecZ, OpSCbranchExecNZ,
		OpSBarrier, OpSNop, OpSWaitcnt,
		OpSLoadDword, OpSLoadDwordx2, OpSLoadDwordx4,
		OpFlatLoadDword, OpFlatLoadDwordx2, OpFlatStoreDword,
		OpFlatStoreDwordx2, OpDSReadB32, OpDSWriteB32, OpDSReadB64, OpDSWriteB64:
		return types(isa.TypeNone)
	case OpFlatAtomicAdd, OpVAddc, OpDSAddU32:
		return types(u32)
	case OpVMov, OpVNot, OpVAnd, OpVOr, OpVXor, OpVCndmask:
		return types(b32)
	case OpVLshl, OpVLshr:
		return types(b32, b64)
	case OpVAshr:
		return types(s32)
	case OpVCvt:
		pairs := [][2]isa.DataType{
			{f32, u32}, {f32, s32}, {u32, f32}, {s32, f32},
			{f64, f32}, {f32, f64}, {f64, u32}, {f64, s32},
			{u32, f64}, {s32, f64}, {u64, u32}, {u32, u64},
			{s64, s32},
		}
		ks := make([]comboKey, len(pairs))
		for i, p := range pairs {
			ks[i] = comboKey{op: op, typ: p[0], srcType: p[1]}
		}
		return ks
	case OpVRcp, OpVSqrt, OpVRsq, OpVMul, OpVFma, OpVDivScale, OpVDivFmas, OpVDivFixup:
		return types(f32, f64)
	case OpVAdd, OpVSub:
		return types(u32, f32, f64)
	case OpVMulLo, OpVMulHi, OpVMad:
		return types(u32)
	case OpVMin, OpVMax:
		return types(u32, s32, f32, f64)
	case OpVCmp:
		return cmps(u32, s32, u64, f32, f64)
	}
	return nil
}

func init() {
	comboToCode = make(map[comboKey]uint16)
	for op := Op(0); op < Op(NumOps); op++ {
		f := op.baseFormat()
		for _, k := range legalCombos(op) {
			comboToCode[k] = uint16(len(codeToCombo[f]))
			codeToCombo[f] = append(codeToCombo[f], k)
		}
	}
	// Register VOP3 promotions: VOPC compares with SGPR destinations,
	// VOP2 v_cndmask with SGPR selectors, and 64-bit VOP2 arithmetic all
	// re-encode in VOP3. Give every promotable combo a VOP3 code too.
	for op := Op(0); op < Op(NumOps); op++ {
		if op.baseFormat() == FmtVOP3 || !promotableToVOP3(op) {
			continue
		}
		for _, k := range legalCombos(op) {
			k3 := comboKey{op: k.op, typ: k.typ, srcType: k.srcType, cmp: k.cmp}
			key := vop3Key(k3)
			if _, dup := comboToCode[key]; dup {
				continue
			}
			comboToCode[key] = uint16(len(codeToCombo[FmtVOP3]))
			codeToCombo[FmtVOP3] = append(codeToCombo[FmtVOP3], k3)
		}
	}
	// Every code must fit its format's opcode field and read back as that
	// format: VOP2 codes 62 and 63 would be VOP1 and VOPC words.
	for f, combos := range codeToCombo {
		l := &formats[f]
		for code := range combos {
			if g, _ := formatOf(uint32(l.word(uint16(code)))); code >= 1<<l.opBits || g != Format(f) {
				panic(fmt.Sprintf("gcn3: format %s opcode space overflow: %d", Format(f), len(combos)))
			}
		}
	}
}

// promotableToVOP3 reports whether a 4-byte vector op has a VOP3 encoding.
func promotableToVOP3(op Op) bool {
	switch op {
	case OpVCmp, OpVCndmask, OpVAdd, OpVSub, OpVMul, OpVMin, OpVMax,
		OpVLshl, OpVLshr, OpVAshr:
		return true
	}
	return false
}

// vop3Key marks a combo as VOP3-encoded by flipping the top bit of op; the
// registry keeps promoted variants distinct from their base-format twins.
func vop3Key(k comboKey) comboKey {
	k.op |= 0x80
	return k
}

// lookupCode returns the format opcode for the instruction.
func lookupCode(in *Inst) (uint16, error) {
	k := comboKey{op: in.Op, typ: in.Type, srcType: in.SrcType}
	if in.Op == OpVCmp || in.Op == OpSCmp {
		k.cmp = in.Cmp
	}
	if in.Format() == FmtVOP3 && in.Op.baseFormat() != FmtVOP3 {
		k = vop3Key(k)
	}
	code, ok := comboToCode[k]
	if !ok {
		return 0, fmt.Errorf("gcn3: no encoding for %s (type %s, srcType %s)", in.Op, in.Type, in.SrcType)
	}
	return code, nil
}

// Source-operand encodings, following the GCN3 unified scheme.
const (
	srcVCC     = 106
	srcEXEC    = 126
	srcZero    = 128
	srcIntPos  = 129 // 129..192 = 1..64
	srcIntNeg  = 193 // 193..208 = -1..-16
	srcFloat05 = 240 // 240..247 = 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0
	srcSCC     = 251
	srcLiteral = 255
	srcVGPR0   = 256 // 256..511 = v0..v255 (9-bit encodings only)
)

var floatConsts = [8]float32{0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0}

// encodeSrc maps an operand to its source code, emitting a literal if needed.
// wide selects the 9-bit space (vector formats); narrow formats get 8 bits.
func encodeSrc(o Operand, wide bool, lit *[]uint32) (uint16, error) {
	switch o.Kind {
	case OperSGPR:
		if o.Index >= isa.MaxSGPRs {
			return 0, fmt.Errorf("SGPR s%d out of range", o.Index)
		}
		return o.Index, nil
	case OperVCC:
		return srcVCC, nil
	case OperEXEC:
		return srcEXEC, nil
	case OperSCC:
		return srcSCC, nil
	case OperVGPR:
		if !wide {
			return 0, fmt.Errorf("VGPR source in scalar format")
		}
		if o.Index >= isa.MaxVGPRs {
			return 0, fmt.Errorf("VGPR v%d out of range", o.Index)
		}
		return srcVGPR0 + o.Index, nil
	case OperInline:
		v := int32(o.Val)
		switch {
		case v == 0:
			return srcZero, nil
		case v >= 1 && v <= 64:
			return srcIntPos + uint16(v) - 1, nil
		case v >= -16 && v <= -1:
			return srcIntNeg + uint16(-v) - 1, nil
		}
		f := math.Float32frombits(o.Val)
		for i, fc := range floatConsts {
			if f == fc {
				return srcFloat05 + uint16(i), nil
			}
		}
		return 0, fmt.Errorf("value %#x not inline-encodable", o.Val)
	case OperLit:
		*lit = append(*lit, o.Val)
		return srcLiteral, nil
	}
	return 0, fmt.Errorf("unencodable source operand kind %d", o.Kind)
}

// decodeSrc inverts encodeSrc. nextLit fetches the trailing literal.
func decodeSrc(code uint16, nextLit func() (uint32, error)) (Operand, error) {
	switch {
	case code < isa.MaxSGPRs:
		return Operand{Kind: OperSGPR, Index: code}, nil
	case code == srcVCC:
		return Operand{Kind: OperVCC}, nil
	case code == srcEXEC:
		return Operand{Kind: OperEXEC}, nil
	case code == srcSCC:
		return Operand{Kind: OperSCC}, nil
	case code == srcZero:
		return Operand{Kind: OperInline, Val: 0}, nil
	case code >= srcIntPos && code < srcIntPos+64:
		return Operand{Kind: OperInline, Val: uint32(code - srcIntPos + 1)}, nil
	case code >= srcIntNeg && code < srcIntNeg+16:
		return Operand{Kind: OperInline, Val: uint32(int32(-(int(code) - srcIntNeg + 1)))}, nil
	case code >= srcFloat05 && code < srcFloat05+8:
		return Operand{Kind: OperInline, Val: math.Float32bits(floatConsts[code-srcFloat05])}, nil
	case code == srcLiteral:
		v, err := nextLit()
		return Operand{Kind: OperLit, Val: v}, err
	case code >= srcVGPR0 && code < srcVGPR0+isa.MaxVGPRs:
		return Operand{Kind: OperVGPR, Index: code - srcVGPR0}, nil
	}
	return Operand{}, fmt.Errorf("gcn3: bad source code %d", code)
}

// encodeSDst maps a scalar destination to its 7-bit code.
func encodeSDst(o Operand) (uint16, error) {
	switch o.Kind {
	case OperNone:
		return 127, nil // sentinel: no scalar destination
	case OperSGPR:
		if o.Index >= isa.MaxSGPRs {
			return 0, fmt.Errorf("SGPR s%d out of range", o.Index)
		}
		return o.Index, nil
	case OperVCC:
		return srcVCC, nil
	case OperEXEC:
		return srcEXEC, nil
	}
	return 0, fmt.Errorf("unencodable scalar destination kind %d", o.Kind)
}

func decodeSDst(code uint16) (Operand, error) {
	switch {
	case code == 127:
		return Operand{}, nil
	case code < isa.MaxSGPRs:
		return Operand{Kind: OperSGPR, Index: code}, nil
	case code == srcVCC:
		return Operand{Kind: OperVCC}, nil
	case code == srcEXEC:
		return Operand{Kind: OperEXEC}, nil
	}
	return Operand{}, fmt.Errorf("gcn3: bad scalar destination code %d", code)
}

// waitcntImm packs waitcnt fields GCN3-style: vmcnt in [3:0], lgkmcnt in
// [12:8]; 0xF / 0x1F mean unconstrained.
func waitcntImm(vm, lgkm int8) uint16 {
	v := uint16(0xF)
	if vm >= 0 {
		v = uint16(vm) & 0xF
	}
	l := uint16(0x1F)
	if lgkm >= 0 {
		l = uint16(lgkm) & 0x1F
	}
	return v | l<<8
}

func waitcntFields(imm uint16) (vm, lgkm int8) {
	vm, lgkm = -1, -1
	if v := imm & 0xF; v != 0xF {
		vm = int8(v)
	}
	if l := imm >> 8 & 0x1F; l != 0x1F {
		lgkm = int8(l)
	}
	return vm, lgkm
}

// EncodeInst encodes one instruction. Branch targets must already be
// expressed as a word offset in in.SImm (EncodeProgram handles this).
func EncodeInst(in *Inst) ([]byte, error) {
	f := in.Format()
	l := &formats[f]
	code, err := lookupCode(in)
	if err != nil {
		return nil, err
	}
	fail := func(format string, args ...any) ([]byte, error) {
		return nil, fmt.Errorf("gcn3: encode %s: %s", in.Op, fmt.Sprintf(format, args...))
	}
	// The fields read v, a copy the rules that are not bit layout rewrite.
	v, bits := *in, l.word(code)
	switch {
	case in.Op == OpSWaitcnt:
		v.SImm = waitcntImm(in.VMCnt, in.LGKMCnt)
	case in.Op == OpVCmp && f == FmtVOP3:
		// The destination field names the SGPR pair, and bit 0 says so.
		v.Dst.Kind = OperVGPR
		bits |= 1
	}
	var lits []uint32
	for _, fd := range l.fields {
		if !fd.slot.carried(in.Op) {
			continue
		}
		x, err := fd.encode(&v, &lits)
		if err != nil {
			return fail("%v", err)
		}
		bits |= x << fd.pos
	}
	if len(lits) > 1 {
		return fail("multiple literal constants")
	}
	if len(lits) == 1 && !l.literal {
		return fail("literal constant in %s format", f)
	}
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, 12), uint32(bits))
	if l.bytes == 8 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(bits>>32))
	}
	for _, lit := range lits {
		buf = binary.LittleEndian.AppendUint32(buf, lit)
	}
	if len(buf) != in.SizeBytes() {
		return fail("size mismatch: encoded %d, SizeBytes %d", len(buf), in.SizeBytes())
	}
	return buf, nil
}
