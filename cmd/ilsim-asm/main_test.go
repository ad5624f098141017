package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestAsmTablesSmoke renders the paper's Table 1/2/3 examples and asserts
// both sides of each dual disassembly are non-empty.
func TestAsmTablesSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-tables"}, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	text := out.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "HSAIL (", "GCN3 ("} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "v_") {
		t.Fatalf("no GCN3 vector instructions in the expansion examples:\n%s", text)
	}
}

// TestAsmWorkloadSmoke disassembles a suite workload's kernels.
func TestAsmWorkloadSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-workload", "ArrayBW"}, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	text := out.String()
	if !strings.Contains(text, "==== kernel ") {
		t.Fatalf("no kernels disassembled:\n%s", text)
	}
	if !strings.Contains(text, "HSAIL (") || !strings.Contains(text, "GCN3 (") {
		t.Fatalf("dual disassembly incomplete:\n%s", text)
	}
}

// TestAsmNoArgs asserts the no-op invocation errors instead of exiting.
func TestAsmNoArgs(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(nil, &out, &errw); err == nil {
		t.Fatal("argument-free invocation accepted")
	}
}

// TestAsmScaleBelowOne: -scale 0 and -scale -1 are refused with an error that
// names the scale, not discovered by a generator.
func TestAsmScaleBelowOne(t *testing.T) {
	for _, scale := range []string{"0", "-1"} {
		var out, errw bytes.Buffer
		err := run([]string{"-workload", "SpMV", "-scale", scale}, &out, &errw)
		if err == nil || !strings.Contains(err.Error(), "scale "+scale+" is below 1") {
			t.Fatalf("-scale %s: error %v, want the scale refused", scale, err)
		}
	}
}
