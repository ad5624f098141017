package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestSingleWorkloadSmoke runs the classic detailed view on ArrayBW at unit
// scale and checks the headline lines are present for both abstractions.
func TestSingleWorkloadSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-workload", "ArrayBW", "-scale", "1"}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	text := out.String()
	for _, want := range []string{"--- HSAIL ---", "--- GCN3 ---", "GCN3/HSAIL:", "cycles"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in output:\n%s", want, text)
		}
	}
}

// TestTableModeSmoke runs a two-workload table and asserts one parseable row
// per workload with consistent H/G cycle ratios — the multi-workload mode
// that submits every (workload, abstraction) job through the engine.
func TestTableModeSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-workload", "ArrayBW,SpMV", "-scale", "1", "-j", "4"}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	text := out.String()
	rows := 0
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 9 || (fields[0] != "ArrayBW" && fields[0] != "SpMV") {
			continue
		}
		rows++
		hCyc, err1 := strconv.ParseUint(fields[1], 10, 64)
		gCyc, err2 := strconv.ParseUint(fields[2], 10, 64)
		hg, err3 := strconv.ParseFloat(fields[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparseable row %q: %v %v %v", line, err1, err2, err3)
		}
		if hCyc == 0 || gCyc == 0 {
			t.Fatalf("zero cycles in row %q", line)
		}
		if want := float64(hCyc) / float64(gCyc); hg < want-0.01 || hg > want+0.01 {
			t.Fatalf("H/G column %v inconsistent with cycles %d/%d in %q", hg, hCyc, gCyc, line)
		}
	}
	if rows != 2 {
		t.Fatalf("got %d table rows, want 2:\n%s", rows, text)
	}
}

// TestTableModeSingleAbs covers the one-abstraction table layout.
func TestTableModeSingleAbs(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-workload", "ArrayBW,SpMV", "-abs", "gcn3", "-scale", "1"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "GCN3"); got < 2 {
		t.Fatalf("want 2 GCN3 rows, got %d:\n%s", got, out.String())
	}
}

// TestJSONOutput checks the machine-readable mode still emits both runs.
func TestJSONOutput(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-workload", "ArrayBW", "-scale", "1", "-json"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	for _, key := range []string{"HSAIL", "GCN3", "scale"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("missing %q in JSON output", key)
		}
	}
}

// TestJSONRejectsWorkloadList: -json describes one workload; with a list it
// used to be dropped silently in favour of the text table. It must fail
// before any job runs (-v would log the first finished job to stderr).
func TestJSONRejectsWorkloadList(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-workload", "ArrayBW,MD", "-scale", "1", "-json", "-v"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-json") {
		t.Fatalf("-json with two workloads: err = %v, want a -json error", err)
	}
	if out.Len() != 0 || errw.Len() != 0 {
		t.Fatalf("output before the rejection:\nstdout: %s\nstderr: %s", out.String(), errw.String())
	}
}

// TestNegativeMachineOverride asserts a negative machine override, worker
// count or timeout, or a scale below 1, is an error before anything
// simulates; 0 alone means "keep the default" for an override.
func TestNegativeMachineOverride(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-cus", "-2"}, {"-banks", "-2"}, {"-wfslots", "-2"}, {"-l1i", "-2"},
		{"-j", "-1"}, {"-timeout", "-1s"}, {"-scale", "0"}, {"-scale", "-1"},
	} {
		var out, errw bytes.Buffer
		err := run([]string{"-workload", "ArrayBW", "-scale", "1", c.flag, c.value}, &out, &errw)
		if want := c.flag + " " + c.value; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a negative-value error", want, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s %s printed results:\n%s", c.flag, c.value, out.String())
		}
	}
}

// TestUnknownWorkload must fail cleanly before any simulation runs.
func TestUnknownWorkload(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-workload", "NoSuchWorkload"}, &out, &errw); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestListWorkloads checks -list prints the registry.
func TestListWorkloads(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ArrayBW", "LULESH", "SpMV"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in -list output:\n%s", want, out.String())
		}
	}
}
