package gcn3

import (
	"fmt"

	"ilsim/internal/isa"
)

// Format is a GCN3 encoding format. It determines the instruction's size:
// 4-byte formats may be followed by one 4-byte literal; 8-byte formats may
// not carry literals (as on real GCN3, where VOP3/SMEM/FLAT/DS encode no
// literal constants).
type Format uint8

// Encoding formats.
const (
	FmtSOP1 Format = iota // scalar, 1 source, 4 bytes
	FmtSOP2               // scalar, 2 sources, 4 bytes
	FmtSOPC               // scalar compare, 4 bytes
	FmtSOPP               // scalar program control, 4 bytes
	FmtSMEM               // scalar memory, 8 bytes
	FmtVOP1               // vector, 1 source, 4 bytes
	FmtVOP2               // vector, 2 sources, 4 bytes
	FmtVOPC               // vector compare to VCC, 4 bytes
	FmtVOP3               // vector, 3 sources / SGPR destinations, 8 bytes
	FmtFLAT               // flat memory, 8 bytes
	FmtDS                 // local data share, 8 bytes

	// NumFormats is the number of encoding formats.
	NumFormats = int(FmtDS) + 1
)

// layout declares one encoding format: all that the encoder, the decoder,
// formatOf and the size rules know of its bits. A bit position counts from
// bit 0 of the first 32-bit word; an 8-byte format's second word holds bits
// 32-63. The packing is this project's own; the sizes and the literal rule
// are GCN3's, because encoded size is what the instruction-footprint and
// fetch experiments measure.
type layout struct {
	name string
	// prefix is the first word's top prefixBits bits.
	prefix     uint32
	prefixBits uint8
	bytes      int  // base size
	literal    bool // may carry one trailing 32-bit literal
	// The opcode field: an index into the format's combo registry.
	opPos, opBits uint8
	fields        []field
}

// field is one operand's bits: its kind, which fixes the width and the code,
// the bit it starts at, and the Inst member it holds.
type field struct {
	kind fieldKind
	pos  uint8
	slot slot
}

type fieldKind uint8

const (
	kVGPR  fieldKind = iota // VGPR index
	kVSrc                   // vector source code (encodeSrc, VGPRs allowed)
	kSSrc                   // scalar source code
	kSDst                   // scalar destination code (encodeSDst)
	kSBase                  // SGPR index of an SGPR pair's base
	kImm16                  // immediate or offset
	kOff20                  // SMEM offset
)

var kindBits = [...]uint8{kVGPR: 8, kVSrc: 9, kSSrc: 8, kSDst: 7, kSBase: 7, kImm16: 16, kOff20: 20}

// slot names the Inst member a field holds; sources come first, so a
// source's slot is its index.
type slot uint8

const (
	sSrc0 slot = iota
	sSrc1
	sSrc2
	sDst
	sSDst
	sSImm
	sOffset
)

var formats = [NumFormats]layout{
	FmtSOP1: {"SOP1", 0b101111101, 9, 4, true, 8, 8, []field{{kSDst, 16, sDst}, {kSSrc, 0, sSrc0}}},
	FmtSOP2: {"SOP2", 0b10, 2, 4, true, 23, 7, []field{{kSDst, 16, sDst}, {kSSrc, 0, sSrc0}, {kSSrc, 8, sSrc1}}},
	FmtSOPC: {"SOPC", 0b101111110, 9, 4, true, 16, 7, []field{{kSSrc, 0, sSrc0}, {kSSrc, 8, sSrc1}}},
	FmtSOPP: {"SOPP", 0b101111111, 9, 4, false, 16, 7, []field{{kImm16, 0, sSImm}}},
	FmtSMEM: {"SMEM", 0b110000, 6, 8, false, 18, 8, []field{{kSDst, 11, sDst}, {kSBase, 4, sSrc0}, {kOff20, 32, sOffset}}},
	FmtVOP1: {"VOP1", 0b0111111, 7, 4, true, 9, 8, []field{{kVGPR, 17, sDst}, {kVSrc, 0, sSrc0}}},
	FmtVOP2: {"VOP2", 0b0, 1, 4, true, 25, 6, []field{{kVGPR, 17, sDst}, {kVSrc, 0, sSrc0}, {kVGPR, 9, sSrc1}}},
	FmtVOPC: {"VOPC", 0b0111110, 7, 4, true, 17, 8, []field{{kVSrc, 0, sSrc0}, {kVGPR, 9, sSrc1}}},
	FmtVOP3: {"VOP3", 0b110100, 6, 8, false, 16, 10, []field{{kVGPR, 8, sDst}, {kSDst, 1, sSDst},
		{kVSrc, 32, sSrc0}, {kVSrc, 41, sSrc1}, {kVSrc, 50, sSrc2}}},
	FmtFLAT: {"FLAT", 0b110111, 6, 8, false, 18, 8, []field{{kVGPR, 48, sDst}, {kVGPR, 32, sSrc0}, {kVGPR, 40, sSrc1}}},
	FmtDS: {"DS", 0b110110, 6, 8, false, 18, 8, []field{{kImm16, 0, sOffset}, {kVGPR, 48, sDst},
		{kVGPR, 32, sSrc0}, {kVGPR, 40, sSrc1}}},
}

// String names the format.
func (f Format) String() string {
	if int(f) < NumFormats {
		return formats[f].name
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// BaseBytes returns the format's base encoding size.
func (f Format) BaseBytes() int { return formats[f].bytes }

// AllowsLiteral reports whether the format may carry a trailing 32-bit
// literal constant.
func (f Format) AllowsLiteral() bool { return formats[f].literal }

// word returns the format's encoding of opcode code with every field zero.
func (l *layout) word(code uint16) uint64 {
	return uint64(l.prefix)<<(32-l.prefixBits) | uint64(code)<<l.opPos
}

// formatOf recognizes the encoding format from the first word: the format
// whose prefix matches, the longest if several do (SOP1, SOPC and SOPP take
// the top SOP2 opcodes, VOP1 and VOPC the top VOP2 ones).
func formatOf(w0 uint32) (Format, bool) {
	f, n := Format(0), uint8(0)
	for g := range formats {
		if l := &formats[g]; l.prefixBits > n && w0>>(32-l.prefixBits) == l.prefix {
			f, n = Format(g), l.prefixBits
		}
	}
	return f, n > 0
}

// carried reports whether op's encoding fills the slot's field: a source
// below the op's source count, a destination on any op but a store. In
// practice these are the FLAT and DS rules (data on stores and atomics, a
// result on all but stores) and VOP3's unused third source.
func (s slot) carried(op Op) bool {
	switch {
	case s <= sSrc2:
		return int(s) < op.NSrc()
	case s == sDst:
		return !op.IsStore()
	}
	return true
}

// operand returns the Inst member a register slot names.
func (in *Inst) operand(s slot) *Operand {
	switch s {
	case sDst:
		return &in.Dst
	case sSDst:
		return &in.SDst
	}
	return &in.Srcs[s]
}

// encode returns the field's bits for in, appending a literal source to lits.
func (fd field) encode(in *Inst, lits *[]uint32) (uint64, error) {
	switch fd.kind {
	case kVSrc, kSSrc:
		c, err := encodeSrc(*in.operand(fd.slot), fd.kind == kVSrc, lits)
		return uint64(c), err
	case kSDst:
		c, err := encodeSDst(*in.operand(fd.slot))
		return uint64(c), err
	case kVGPR:
		if o := in.operand(fd.slot); o.Kind == OperVGPR && o.Index < isa.MaxVGPRs {
			return uint64(o.Index), nil
		}
		return 0, fmt.Errorf("operand must be a VGPR")
	case kSBase:
		if o := in.operand(fd.slot); o.Kind == OperSGPR && o.Index < isa.MaxSGPRs {
			return uint64(o.Index), nil
		}
		return 0, fmt.Errorf("base must be an SGPR pair")
	}
	v := int64(in.Offset)
	if fd.slot == sSImm {
		v = int64(in.SImm)
	}
	if v < 0 || v >= 1<<kindBits[fd.kind] {
		return 0, fmt.Errorf("offset %#x out of range", v)
	}
	return uint64(v), nil
}

// decode sets the field's Inst member from the field's bits x; nextLit
// fetches the trailing literal.
func (fd field) decode(in *Inst, x uint64, nextLit func() (uint32, error)) (err error) {
	switch fd.kind {
	case kVSrc, kSSrc:
		*in.operand(fd.slot), err = decodeSrc(uint16(x), nextLit)
	case kSDst:
		*in.operand(fd.slot), err = decodeSDst(uint16(x))
	case kVGPR:
		*in.operand(fd.slot) = Operand{Kind: OperVGPR, Index: uint16(x)}
	case kSBase:
		if x >= isa.MaxSGPRs {
			return fmt.Errorf("gcn3: bad SGPR base s%d", x)
		}
		*in.operand(fd.slot) = Operand{Kind: OperSGPR, Index: uint16(x)}
	default:
		if fd.slot == sSImm {
			in.SImm = uint16(x)
		} else {
			in.Offset = int32(x)
		}
	}
	return err
}
