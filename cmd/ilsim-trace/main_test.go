package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTraceSmoke traces one wavefront of a small workload under both
// abstractions and asserts the stream contains real disassembly.
func TestTraceSmoke(t *testing.T) {
	for _, abs := range []string{"hsail", "gcn3"} {
		t.Run(abs, func(t *testing.T) {
			var out, errw bytes.Buffer
			err := run([]string{"-workload", "ArrayBW", "-abs", abs, "-max", "50"}, &out, &errw)
			if err != nil {
				t.Fatalf("run: %v\nstderr: %s", err, errw.String())
			}
			text := out.String()
			if !strings.Contains(text, "workgroup 0, wave 0") {
				t.Fatalf("missing trace header:\n%s", text)
			}
			if !strings.Contains(text, "0x") || !strings.Contains(text, "wave executed") {
				t.Fatalf("trace has no instruction rows:\n%s", text)
			}
			// The two abstractions disassemble differently; check an
			// idiomatic mnemonic of each appears.
			want := "ld_"
			if abs == "gcn3" {
				want = "v_"
			}
			if !strings.Contains(text, want) {
				t.Fatalf("%s trace lacks %q mnemonics:\n%s", abs, want, text)
			}
		})
	}
}

// TestTraceBadWorkload asserts unknown workloads fail instead of exiting.
func TestTraceBadWorkload(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-workload", "nope"}, &out, &errw); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestTraceBadAbstraction asserts a bogus -abs errors instead of silently
// falling through to GCN3.
func TestTraceBadAbstraction(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-workload", "ArrayBW", "-abs", "ptx"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "unknown abstraction") {
		t.Fatalf("bad -abs: got %v, want unknown abstraction error", err)
	}
}

// TestTraceIndexOutOfRange asserts a workgroup or wave index past either
// end of the launch is an error, not a panic.
func TestTraceIndexOutOfRange(t *testing.T) {
	for _, args := range [][]string{
		{"-wg", "-1"}, {"-wg", "1000000"}, {"-wave", "-1"}, {"-wave", "1000"},
	} {
		var out, errw bytes.Buffer
		err := run(append([]string{"-workload", "ArrayBW"}, args...), &out, &errw)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%v: got %v, want an out of range error", args, err)
		}
	}
}
