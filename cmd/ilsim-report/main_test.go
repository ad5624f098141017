package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentRunsNothing: a misspelt -exp is refused with exit
// status 2 before the journal is opened or any job runs (-v would print a
// progress line per job).
func TestUnknownExperimentRunsNothing(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "report.jsonl")
	var out, errw bytes.Buffer
	code := run([]string{"-exp", "fig13", "-scale", "1", "-v", "-journal", journal}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit status %d, want 2; stderr:\n%s", code, errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", out.String())
	}
	if lines := strings.Split(strings.TrimSpace(errw.String()), "\n"); len(lines) != 1 ||
		!strings.Contains(lines[0], `unknown experiment "fig13"`) {
		t.Errorf("stderr is not the one refusal line:\n%s", errw.String())
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("journal %s was created (stat error %v)", journal, err)
	}
}

// TestNegativeFlags: a negative worker count or a scale below 1 is refused
// with exit status 2 before the journal is opened or any job runs; -j 0
// keeps its documented meaning (GOMAXPROCS).
func TestNegativeFlags(t *testing.T) {
	for _, c := range []struct{ flag, value string }{{"-j", "-1"}, {"-scale", "0"}, {"-scale", "-1"}} {
		journal := filepath.Join(t.TempDir(), "report.jsonl")
		var out, errw bytes.Buffer
		code := run([]string{"-exp", "fig5", "-scale", "1", "-journal", journal,
			c.flag, c.value}, &out, &errw)
		if want := c.flag + " " + c.value; code != 2 || !strings.Contains(errw.String(), want) {
			t.Errorf("%s: exit status %d, want 2 naming it; stderr:\n%s", want, code, errw.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s %s printed a report:\n%s", c.flag, c.value, out.String())
		}
		if _, err := os.Stat(journal); !os.IsNotExist(err) {
			t.Errorf("%s %s created journal %s (stat error %v)", c.flag, c.value, journal, err)
		}
	}
}

// TestOneExperimentPrintsOnlyItsSection: -exp fig5 prints the Fig 5 section
// and nothing else on stdout; the -csv confirmation goes to stderr.
func TestOneExperimentPrintsOnlyItsSection(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-exp", "fig5", "-scale", "1", "-csv", t.TempDir()}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit status %d; stderr:\n%s", code, errw.String())
	}
	text := strings.TrimLeft(out.String(), "\n")
	if !strings.HasPrefix(text, "### Figure 5 ") {
		t.Fatalf("stdout does not open with the Fig 5 heading:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n")[1:] {
		if strings.HasPrefix(line, "#") {
			t.Errorf("stdout holds another section: %q", line)
		}
	}
	if strings.Contains(text, "wrote CSV") || !strings.Contains(errw.String(), "wrote CSV files to") {
		t.Errorf("the CSV confirmation is not on stderr alone; stderr:\n%s", errw.String())
	}
}

// TestHWFlagGone: Table 7 needs no oracle run, so there is no -hw.
func TestHWFlagGone(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-exp", "table7", "-scale", "1", "-hw=false"}, &out, &errw)
	if code != 2 || !strings.Contains(errw.String(), "flag provided but not defined: -hw") {
		t.Fatalf("-hw=false: exit status %d; stderr:\n%s", code, errw.String())
	}
}
