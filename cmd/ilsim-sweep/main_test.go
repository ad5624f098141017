package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestSweepSmoke runs a tiny 2-point bank sweep on ArrayBW at unit scale
// and asserts the table parses: one row per point with stable numeric
// cycle columns and an H/G ratio.
func TestSweepSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-param", "banks", "-workload", "ArrayBW",
		"-scale", "1", "-points", "2", "-j", "2"}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	text := out.String()
	if !strings.Contains(text, "sweep banks on ArrayBW (scale 1)") {
		t.Fatalf("missing header:\n%s", text)
	}
	var rows int
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 7 || !strings.HasPrefix(fields[0], "banks=") {
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
		t.Fatalf("got %d sweep rows, want 2:\n%s", rows, text)
	}
}

// TestSweepVerboseProgress checks the -v progress stream reports every job.
func TestSweepVerboseProgress(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-param", "banks", "-workload", "ArrayBW",
		"-scale", "1", "-points", "2", "-v"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(errw.String(), "\n")
	if lines != 4 { // 2 points × 2 abstractions
		t.Fatalf("got %d progress lines, want 4:\n%s", lines, errw.String())
	}
}

// TestSweepUnknownParam must fail cleanly.
func TestSweepUnknownParam(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-param", "bogus"}, &out, &errw); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

// TestSweepNegativeFlags: a negative worker count, point limit or timeout,
// or a scale below 1, is an error before anything simulates; 0 keeps its
// documented meaning.
func TestSweepNegativeFlags(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-j", "-3"}, {"-points", "-2"}, {"-timeout", "-1s"}, {"-scale", "0"}, {"-scale", "-1"},
	} {
		var out, errw bytes.Buffer
		err := run([]string{"-param", "banks", "-workload", "ArrayBW", "-scale", "1", "-points", "1",
			c.flag, c.value}, &out, &errw)
		if want := c.flag + " " + c.value; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a negative-value error", want, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s %s printed results:\n%s", c.flag, c.value, out.String())
		}
	}
}

// TestSweepRetriesFlagGone: a job runs once, so there is no -retries.
func TestSweepRetriesFlagGone(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-param", "banks", "-points", "1", "-retries", "2"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -retries") {
		t.Fatalf("-retries: err %v", err)
	}
}

// TestSweepCUs exercises the machine-scaling sweep end to end on the two
// smallest machines.
func TestSweepCUs(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-param", "cus", "-workload", "ArrayBW",
		"-scale", "1", "-points", "2"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cus=2") || !strings.Contains(out.String(), "cus=4") {
		t.Fatalf("cus rows missing:\n%s", out.String())
	}
}
