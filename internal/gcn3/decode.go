package gcn3

import (
	"encoding/binary"
	"fmt"
	"io"

	"ilsim/internal/isa"
)

// DecodeInst decodes one instruction from the front of data, returning the
// instruction and its encoded size. SOPP branch targets are left as word
// offsets in SImm; DecodeProgram resolves them to instruction indexes.
func DecodeInst(data []byte) (*Inst, int, error) {
	if len(data) < 4 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	w0 := binary.LittleEndian.Uint32(data)
	f, ok := formatOf(w0)
	if !ok {
		return nil, 0, fmt.Errorf("gcn3: unrecognized encoding %#08x", w0)
	}
	l := &formats[f]
	if len(data) < l.bytes {
		return nil, 0, io.ErrUnexpectedEOF
	}
	bits := uint64(w0)
	if l.bytes == 8 {
		bits |= uint64(binary.LittleEndian.Uint32(data[4:])) << 32
	}
	litOff := l.bytes
	nextLit := func() (uint32, error) {
		if len(data) < litOff+4 {
			return 0, io.ErrUnexpectedEOF
		}
		v := binary.LittleEndian.Uint32(data[litOff:])
		litOff += 4
		return v, nil
	}
	code := bits >> l.opPos & (1<<l.opBits - 1)
	if code >= uint64(len(codeToCombo[f])) {
		return nil, 0, fmt.Errorf("gcn3: bad %s opcode %d", f, code)
	}
	k := codeToCombo[f][code]
	in := &Inst{Op: k.op &^ 0x80, Type: k.typ, SrcType: k.srcType, Cmp: k.cmp, VMCnt: -1, LGKMCnt: -1}
	for _, fd := range l.fields {
		if !fd.slot.carried(in.Op) {
			continue
		}
		if err := fd.decode(in, bits>>fd.pos&(1<<kindBits[fd.kind]-1), nextLit); err != nil {
			return nil, 0, err
		}
	}
	// The rules that are not bit layout: VOP2's implicit VCC, VOPC's VCC
	// destination, the VOP3 v_cmp flag and s_waitcnt's counters.
	switch {
	case f == FmtVOP2 && in.Op == OpVCndmask:
		in.Srcs[2] = VCC()
	case f == FmtVOP2 && in.Type == isa.TypeU32 && (in.Op == OpVAdd || in.Op == OpVSub || in.Op == OpVAddc):
		in.SDst = VCC()
	case f == FmtVOPC:
		in.Dst = VCC()
	case f == FmtVOP3 && in.Op == OpVCmp && bits&1 != 0:
		in.Dst.Kind = OperSGPR
	case in.Op == OpSWaitcnt:
		in.VMCnt, in.LGKMCnt = waitcntFields(in.SImm)
		in.SImm = 0
	}
	// Refuse what EncodeInst cannot emit: it picks the format from the
	// instruction (a 64-bit v_max is VOP3, never VOP2; a v_cmp into VCC is
	// VOPC, never VOP3) and allows one literal, in 4-byte formats only.
	if got := in.Format(); got != f {
		return nil, 0, fmt.Errorf("gcn3: %s in %s encoding, which encodes only as %s", in.Mnemonic(), f, got)
	}
	if n := in.NumLiterals(); n > 1 || n == 1 && !l.literal {
		return nil, 0, fmt.Errorf("gcn3: %s with %d literals in %s encoding", in.Mnemonic(), n, f)
	}
	return in, litOff, nil
}

// EncodeProgram lays out and encodes a whole program. Branch targets in
// Inst.Target (instruction indexes) become GCN3-style signed word offsets
// relative to the next instruction.
func EncodeProgram(p *Program) ([]byte, error) {
	p.Layout()
	var out []byte
	for i := range p.Insts {
		in := p.Insts[i] // copy: Target→SImm translation is encode-local
		if in.Op.IsBranch() {
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
	off := 0
	for off < len(data) {
		in, n, err := DecodeInst(data[off:])
		if err != nil {
			return nil, fmt.Errorf("gcn3: at offset %#x: %w", off, err)
		}
		p.Insts = append(p.Insts, *in)
		off += n
	}
	p.Layout()
	for i := range p.Insts {
		in := &p.Insts[i]
		if !in.Op.IsBranch() {
			continue
		}
		delta := int64(int16(in.SImm))
		target := int64(p.PCs[i]) + 4 + delta*4
		idx := p.IndexAt(uint64(target))
		if idx < 0 {
			return nil, fmt.Errorf("gcn3: inst %d: branch to unaligned offset %#x", i, target)
		}
		in.Target = int32(idx)
		in.SImm = 0
	}
	return p, nil
}
