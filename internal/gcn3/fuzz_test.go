package gcn3

import (
	"bytes"
	"testing"
)

// FuzzDecodeInst holds the decoder to the encoder: any bytes DecodeInst
// accepts must name an instruction EncodeInst can emit, in as many bytes as
// were decoded, and decoding that encoding must give an instruction that
// re-encodes to the same bytes. (The first encoding may differ from the
// input: fields the format ignores are dropped.) The corpus seeds from the
// encoding of every sample instruction.
func FuzzDecodeInst(f *testing.F) {
	for _, in := range sampleInsts() {
		normalize(&in)
		b, err := EncodeInst(&in)
		if err != nil {
			f.Fatalf("%s: encode: %v", in.String(), err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, n, err := DecodeInst(data)
		if err != nil {
			return
		}
		enc, err := EncodeInst(in)
		if err != nil {
			t.Fatalf("% x decodes to %s, which does not encode: %v", data[:n], in.String(), err)
		}
		if len(enc) != n {
			t.Fatalf("% x decodes to %s from %d bytes, which encodes in %d", data[:n], in.String(), n, len(enc))
		}
		again, m, err := DecodeInst(enc)
		if err != nil {
			t.Fatalf("%s encodes to % x, which does not decode: %v", in.String(), enc, err)
		}
		if m != len(enc) {
			t.Fatalf("%s encodes to % x, which decodes from %d bytes", in.String(), enc, m)
		}
		enc2, err := EncodeInst(again)
		if err != nil {
			t.Fatalf("%s re-decodes to %s, which does not encode: %v", in.String(), again.String(), err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s encodes to % x but its re-decoding %s to % x", in.String(), enc, again.String(), enc2)
		}
	})
}
