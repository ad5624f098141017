package gcn3

import (
	"encoding/binary"
	"fmt"
	"io"

	"ilsim/internal/isa"
)

// formatOf recognizes the encoding format from the first word's prefix bits.
func formatOf(w0 uint32) Format {
	switch {
	case w0>>31 == 0b0:
		switch w0 >> 25 {
		case 0x3F:
			return FmtVOP1
		case 0x3E:
			return FmtVOPC
		default:
			return FmtVOP2
		}
	case w0>>30 == 0b10:
		switch w0 >> 23 {
		case 0b101111101:
			return FmtSOP1
		case 0b101111110:
			return FmtSOPC
		case 0b101111111:
			return FmtSOPP
		default:
			return FmtSOP2
		}
	default:
		switch w0 >> 26 {
		case 0b110000:
			return FmtSMEM
		case 0b110100:
			return FmtVOP3
		case 0b110110:
			return FmtDS
		case 0b110111:
			return FmtFLAT
		}
	}
	return Format(0xFF)
}

// DecodeInst decodes one instruction from the front of data, returning the
// instruction and its encoded size. SOPP branch targets are left as word
// offsets in SImm; DecodeProgram resolves them to instruction indexes.
func DecodeInst(data []byte) (*Inst, int, error) {
	if len(data) < 4 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	w0 := binary.LittleEndian.Uint32(data)
	f := formatOf(w0)
	if f == Format(0xFF) {
		return nil, 0, fmt.Errorf("gcn3: unrecognized encoding %#08x", w0)
	}
	size := f.BaseBytes()
	if len(data) < size {
		return nil, 0, io.ErrUnexpectedEOF
	}
	var w1 uint32
	if size == 8 {
		w1 = binary.LittleEndian.Uint32(data[4:])
	}
	litOff := size
	nextLit := func() (uint32, error) {
		if len(data) < litOff+4 {
			return 0, io.ErrUnexpectedEOF
		}
		v := binary.LittleEndian.Uint32(data[litOff:])
		litOff += 4
		return v, nil
	}

	in := &Inst{VMCnt: -1, LGKMCnt: -1}
	var code uint16
	var err error
	fill := func(k comboKey) {
		in.Op = k.op &^ 0x80
		in.Type = k.typ
		in.SrcType = k.srcType
		in.Cmp = k.cmp
	}
	combo := func(f Format, code uint16) (comboKey, error) {
		if int(code) >= len(codeToCombo[f]) {
			return comboKey{}, fmt.Errorf("gcn3: bad %s opcode %d", f, code)
		}
		return codeToCombo[f][code], nil
	}

	switch f {
	case FmtVOP2:
		code = uint16(w0 >> 25 & 0x3F)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		in.Dst = Operand{Kind: OperVGPR, Index: uint16(w0 >> 17 & 0xFF)}
		in.Srcs[1] = Operand{Kind: OperVGPR, Index: uint16(w0 >> 9 & 0xFF)}
		in.Srcs[0], err = decodeSrc(uint16(w0&0x1FF), nextLit)
		if err != nil {
			return nil, 0, err
		}
		if (in.Op == OpVAdd || in.Op == OpVSub || in.Op == OpVAddc) && in.Type == isa.TypeU32 {
			in.SDst = Operand{Kind: OperVCC}
		}
		if in.Op == OpVCndmask {
			in.Srcs[2] = Operand{Kind: OperVCC}
		}
	case FmtVOP1:
		code = uint16(w0 >> 9 & 0xFF)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		in.Dst = Operand{Kind: OperVGPR, Index: uint16(w0 >> 17 & 0xFF)}
		in.Srcs[0], err = decodeSrc(uint16(w0&0x1FF), nextLit)
		if err != nil {
			return nil, 0, err
		}
	case FmtVOPC:
		code = uint16(w0 >> 17 & 0xFF)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		in.Dst = Operand{Kind: OperVCC}
		in.Srcs[1] = Operand{Kind: OperVGPR, Index: uint16(w0 >> 9 & 0xFF)}
		in.Srcs[0], err = decodeSrc(uint16(w0&0x1FF), nextLit)
		if err != nil {
			return nil, 0, err
		}
	case FmtSOP2:
		code = uint16(w0 >> 23 & 0x7F)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		in.Dst, err = decodeSDst(uint16(w0 >> 16 & 0x7F))
		if err != nil {
			return nil, 0, err
		}
		if in.Srcs[1], err = decodeSrc(uint16(w0>>8&0xFF), nextLit); err != nil {
			return nil, 0, err
		}
		if in.Srcs[0], err = decodeSrc(uint16(w0&0xFF), nextLit); err != nil {
			return nil, 0, err
		}
	case FmtSOP1:
		code = uint16(w0 >> 8 & 0xFF)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		in.Dst, err = decodeSDst(uint16(w0 >> 16 & 0x7F))
		if err != nil {
			return nil, 0, err
		}
		if in.Srcs[0], err = decodeSrc(uint16(w0&0xFF), nextLit); err != nil {
			return nil, 0, err
		}
	case FmtSOPC:
		code = uint16(w0 >> 16 & 0x7F)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		if in.Srcs[1], err = decodeSrc(uint16(w0>>8&0xFF), nextLit); err != nil {
			return nil, 0, err
		}
		if in.Srcs[0], err = decodeSrc(uint16(w0&0xFF), nextLit); err != nil {
			return nil, 0, err
		}
	case FmtSOPP:
		code = uint16(w0 >> 16 & 0x7F)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		in.SImm = uint16(w0 & 0xFFFF)
		if in.Op == OpSWaitcnt {
			in.VMCnt, in.LGKMCnt = waitcntFields(in.SImm)
			in.SImm = 0
		}
	case FmtSMEM:
		code = uint16(w0 >> 18 & 0xFF)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		in.Dst, err = decodeSDst(uint16(w0 >> 11 & 0x7F))
		if err != nil {
			return nil, 0, err
		}
		in.Srcs[0] = Operand{Kind: OperSGPR, Index: uint16(w0 >> 4 & 0x7F)}
		in.Offset = int32(w1 & 0xFFFFF)
	case FmtVOP3:
		code = uint16(w0 >> 16 & 0x3FF)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		vdst := uint16(w0 >> 8 & 0xFF)
		if in.SDst, err = decodeSDst(uint16(w0 >> 1 & 0x7F)); err != nil {
			return nil, 0, err
		}
		switch {
		case in.Op == OpVCmp && w0&1 != 0:
			in.Dst = Operand{Kind: OperSGPR, Index: vdst}
		case in.Op == OpVCmp:
			in.Dst = Operand{Kind: OperVCC}
		default:
			in.Dst = Operand{Kind: OperVGPR, Index: vdst}
		}
		for i := 0; i < in.Op.NSrc(); i++ {
			c := uint16(w1 >> uint(9*i) & 0x1FF)
			if in.Srcs[i], err = decodeSrc(c, nextLit); err != nil {
				return nil, 0, err
			}
		}
	case FmtFLAT:
		code = uint16(w0 >> 18 & 0xFF)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		in.Srcs[0] = Operand{Kind: OperVGPR, Index: uint16(w1 & 0xFF)}
		if in.Op.IsStore() || in.Op == OpFlatAtomicAdd {
			in.Srcs[1] = Operand{Kind: OperVGPR, Index: uint16(w1 >> 8 & 0xFF)}
		}
		if !in.Op.IsStore() {
			in.Dst = Operand{Kind: OperVGPR, Index: uint16(w1 >> 16 & 0xFF)}
		}
	case FmtDS:
		code = uint16(w0 >> 18 & 0xFF)
		k, e := combo(f, code)
		if e != nil {
			return nil, 0, e
		}
		fill(k)
		in.Offset = int32(w0 & 0xFFFF)
		in.Srcs[0] = Operand{Kind: OperVGPR, Index: uint16(w1 & 0xFF)}
		if in.Op.IsStore() || in.Op == OpDSAddU32 {
			in.Srcs[1] = Operand{Kind: OperVGPR, Index: uint16(w1 >> 8 & 0xFF)}
		}
		if !in.Op.IsStore() {
			in.Dst = Operand{Kind: OperVGPR, Index: uint16(w1 >> 16 & 0xFF)}
		}
	}
	// Refuse what EncodeInst cannot emit: it picks the format from the
	// instruction (a 64-bit v_max is VOP3, never VOP2; a v_cmp into VCC is
	// VOPC, never VOP3) and allows one literal, in 4-byte formats only.
	if got := in.Format(); got != f {
		return nil, 0, fmt.Errorf("gcn3: %s in %s encoding, which encodes only as %s", in.Mnemonic(), f, got)
	}
	if n := in.NumLiterals(); n > 1 || n == 1 && !f.AllowsLiteral() {
		return nil, 0, fmt.Errorf("gcn3: %s with %d literals in %s encoding", in.Mnemonic(), n, f)
	}
	return in, litOff, nil
}

// isBranchWithTarget reports whether the SOPP op's SImm is a branch offset.
func isBranchWithTarget(op Op) bool {
	switch op {
	case OpSBranch, OpSCbranchSCC0, OpSCbranchSCC1, OpSCbranchVCCZ,
		OpSCbranchVCCNZ, OpSCbranchExecZ, OpSCbranchExecNZ:
		return true
	}
	return false
}

// EncodeProgram lays out and encodes a whole program. Branch targets in
// Inst.Target (instruction indexes) become GCN3-style signed word offsets
// relative to the next instruction.
func EncodeProgram(p *Program) ([]byte, error) {
	p.Layout()
	var out []byte
	for i := range p.Insts {
		in := p.Insts[i] // copy: Target→SImm translation is encode-local
		if isBranchWithTarget(in.Op) {
			t := int(in.Target)
			if t < 0 || t >= len(p.Insts) {
				return nil, fmt.Errorf("gcn3: inst %d: branch target %d out of range", i, t)
			}
			next := p.PCs[i] + 4 // offset is from the end of the 4-byte SOPP
			delta := (int64(p.PCs[t]) - int64(next)) / 4
			if delta < -32768 || delta > 32767 {
				return nil, fmt.Errorf("gcn3: inst %d: branch offset %d overflows simm16", i, delta)
			}
			in.SImm = uint16(int16(delta))
		}
		b, err := EncodeInst(&in)
		if err != nil {
			return nil, fmt.Errorf("gcn3: inst %d (%s): %w", i, in.String(), err)
		}
		out = append(out, b...)
	}
	return out, nil
}

// DecodeProgram parses an encoded program and resolves branch targets back
// to instruction indexes.
func DecodeProgram(data []byte) (*Program, error) {
	p := &Program{}
	var pcs []uint64
	off := 0
	for off < len(data) {
		in, n, err := DecodeInst(data[off:])
		if err != nil {
			return nil, fmt.Errorf("gcn3: at offset %#x: %w", off, err)
		}
		pcs = append(pcs, uint64(off))
		p.Insts = append(p.Insts, *in)
		off += n
	}
	p.Layout()
	for i := range p.Insts {
		in := &p.Insts[i]
		if !isBranchWithTarget(in.Op) {
			continue
		}
		delta := int64(int16(in.SImm))
		target := int64(pcs[i]) + 4 + delta*4
		idx := p.IndexAt(uint64(target))
		if idx < 0 {
			return nil, fmt.Errorf("gcn3: inst %d: branch to unaligned offset %#x", i, target)
		}
		in.Target = int32(idx)
		in.SImm = 0
	}
	return p, nil
}
