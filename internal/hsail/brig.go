package hsail

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"ilsim/internal/isa"
)

// This file implements the BRIG-like binary container for HSAIL kernels.
//
// Real BRIG encodes each instruction as a verbose, self-describing record
// (instruction base + per-operand records + string-table references) designed
// for fast consumption by finalizer software rather than hardware decode; a
// kernel "may require several kilobytes of storage" (paper §III.C.3). This
// codec reproduces that structural property: every instruction serializes to
// a fixed 48-byte instruction record, a 16-byte record per operand, and a
// string-table mnemonic reference. Decoding recovers the kernel exactly
// (round-trip tested). The timing simulator never fetches BRIG bytes; the
// loader re-represents each decoded instruction as an 8-byte handle in
// simulated memory (InstBytes), the same approximation gem5 uses.

// brigMagic identifies the container format.
var brigMagic = [8]byte{'B', 'R', 'I', 'G', '-', 'G', 'O', '1'}

const brigVersion = 1

// instRecordSize is the fixed size of a BRIG instruction base record.
const instRecordSize = 48

// operandRecordSize is the fixed size of a BRIG operand record.
const operandRecordSize = 16

// EncodeBRIG serializes the kernel into the BRIG-like container format.
func EncodeBRIG(k *Kernel) ([]byte, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("hsail: encode: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(brigMagic[:])
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) } //nolint:errcheck // bytes.Buffer cannot fail

	// String table: mnemonics referenced by instruction records, mirroring
	// BRIG's hsa_code section / string section split.
	strTab := newStringTable()

	w(uint32(brigVersion))
	writeString(&buf, k.Name)
	w(uint32(k.NumRegSlots))
	w(uint32(k.NumCRegs))
	w(uint32(k.GroupSize))
	w(uint32(k.PrivateSize))
	w(uint32(k.SpillSize))
	w(uint32(k.KernargSize))
	w(uint32(len(k.Args)))
	for _, a := range k.Args {
		writeString(&buf, a.Name)
		w(uint32(a.Size))
		w(uint32(a.Offset))
	}
	w(uint32(len(k.Blocks)))
	for _, b := range k.Blocks {
		w(uint32(len(b.Insts)))
		for i := range b.Insts {
			encodeInst(&buf, strTab, &b.Insts[i])
		}
	}
	// Append the string table at the end, preceded by its length.
	tab := strTab.bytes()
	w(uint32(len(tab)))
	buf.Write(tab)
	return buf.Bytes(), nil
}

// DecodeBRIG parses a BRIG-like container back into a kernel.
func DecodeBRIG(data []byte) (*Kernel, error) {
	r := &reader{data: data}
	var magic [8]byte
	r.bytes(magic[:])
	if magic != brigMagic {
		return nil, fmt.Errorf("hsail: decode: bad magic %q", magic[:])
	}
	if v := r.u32(); v != brigVersion {
		return nil, fmt.Errorf("hsail: decode: unsupported version %d", v)
	}
	k := &Kernel{}
	k.Name = r.string()
	k.NumRegSlots = int(r.u32())
	k.NumCRegs = int(r.u32())
	k.GroupSize = int(r.u32())
	k.PrivateSize = int(r.u32())
	k.SpillSize = int(r.u32())
	k.KernargSize = int(r.u32())
	// Every count is checked against the bytes left before anything is
	// allocated for it: an argument takes at least 12 bytes, a block 4 and
	// an instruction a base record plus its destination operand record.
	nArgs := int(r.u32())
	if nArgs > r.left()/12 {
		return nil, fmt.Errorf("hsail: decode: implausible arg count %d", nArgs)
	}
	for i := 0; i < nArgs; i++ {
		a := ArgInfo{Name: r.string(), Size: int(r.u32()), Offset: int(r.u32())}
		k.Args = append(k.Args, a)
	}
	nBlocks := int(r.u32())
	if nBlocks > r.left()/4 {
		return nil, fmt.Errorf("hsail: decode: implausible block count %d", nBlocks)
	}
	for bi := 0; bi < nBlocks; bi++ {
		b := &Block{ID: bi}
		nInsts := int(r.u32())
		if nInsts > r.left()/(instRecordSize+operandRecordSize) {
			return nil, fmt.Errorf("hsail: decode: implausible instruction count %d", nInsts)
		}
		b.Insts = make([]Inst, nInsts)
		for ii := 0; ii < nInsts; ii++ {
			decodeInst(r, &b.Insts[ii])
		}
		k.Blocks = append(k.Blocks, b)
	}
	if r.err != nil {
		return nil, fmt.Errorf("hsail: decode: %w", r.err)
	}
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("hsail: decode: %w", err)
	}
	return k, nil
}

func encodeInst(buf *bytes.Buffer, strTab *stringTable, in *Inst) {
	// Fixed 48-byte instruction base record.
	var rec [instRecordSize]byte
	le := binary.LittleEndian
	le.PutUint16(rec[0:], uint16(instRecordSize))
	rec[2] = byte(in.Op)
	rec[3] = byte(in.Type)
	rec[4] = byte(in.SrcType)
	rec[5] = byte(in.Cmp)
	rec[6] = byte(in.Seg)
	rec[7] = byte(in.Dim)
	rec[8] = in.NSrc
	nOper := 0
	in.Operands(func(*Operand, isa.DataType, bool) { nOper++ })
	rec[9] = byte(nOper)
	le.PutUint32(rec[12:], uint32(in.Target))
	le.PutUint32(rec[16:], uint32(in.Addr.Offset))
	le.PutUint32(rec[20:], strTab.ref(in.Op.String()))
	// Bytes 24..47 are reserved padding, mirroring BRIG's generously sized
	// base records.
	buf.Write(rec[:])

	// One 16-byte record per operand, in the order Inst.Operands visits.
	in.Operands(func(o *Operand, _ isa.DataType, _ bool) { writeOperand(buf, *o) })
}

func decodeInst(r *reader, in *Inst) {
	var rec [instRecordSize]byte
	r.bytes(rec[:])
	le := binary.LittleEndian
	if sz := le.Uint16(rec[0:]); sz != instRecordSize {
		r.fail(fmt.Errorf("bad instruction record size %d", sz))
		return
	}
	in.Op = Op(rec[2])
	in.Type = dataTypeFromByte(rec[3])
	in.SrcType = dataTypeFromByte(rec[4])
	in.Cmp = cmpFromByte(rec[5])
	in.Seg = Segment(rec[6])
	in.Dim = dimFromByte(rec[7])
	in.NSrc = rec[8]
	if in.NSrc > 3 {
		r.fail(fmt.Errorf("bad source count %d", in.NSrc))
		return
	}
	in.Target = int32(le.Uint32(rec[12:]))
	in.Addr.Offset = int32(le.Uint32(rec[16:]))
	in.Operands(func(o *Operand, _ isa.DataType, _ bool) { *o = r.operand() })
}

func writeOperand(buf *bytes.Buffer, o Operand) {
	var rec [operandRecordSize]byte
	le := binary.LittleEndian
	rec[0] = byte(o.Kind)
	le.PutUint16(rec[2:], o.Reg)
	le.PutUint64(rec[8:], o.Imm)
	buf.Write(rec[:])
}

func writeString(buf *bytes.Buffer, s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	buf.Write(n[:])
	buf.WriteString(s)
}

func dataTypeFromByte(b byte) isa.DataType { return isa.DataType(b) }

func cmpFromByte(b byte) isa.CmpOp { return isa.CmpOp(b) }

func dimFromByte(b byte) isa.Dim { return isa.Dim(b) }

// reader is a bounds-checked little-endian cursor over the container bytes.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) bytes(dst []byte) {
	if r.err != nil {
		return
	}
	if r.off+len(dst) > len(r.data) {
		r.fail(io.ErrUnexpectedEOF)
		return
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
}

// left is the number of bytes not yet read.
func (r *reader) left() int { return len(r.data) - r.off }

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) string() string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail(io.ErrUnexpectedEOF)
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) operand() Operand {
	var rec [operandRecordSize]byte
	r.bytes(rec[:])
	le := binary.LittleEndian
	return Operand{
		Kind: OperandKind(rec[0]),
		Reg:  le.Uint16(rec[2:]),
		Imm:  le.Uint64(rec[8:]),
	}
}

// stringTable interns mnemonics, mirroring BRIG's string section.
type stringTable struct {
	offsets map[string]uint32
	buf     bytes.Buffer
}

func newStringTable() *stringTable {
	return &stringTable{offsets: make(map[string]uint32)}
}

func (t *stringTable) ref(s string) uint32 {
	if off, ok := t.offsets[s]; ok {
		return off
	}
	off := uint32(t.buf.Len())
	t.offsets[s] = off
	writeString(&t.buf, s)
	return off
}

func (t *stringTable) bytes() []byte { return t.buf.Bytes() }
