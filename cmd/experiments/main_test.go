package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The tests run the real experiment pipeline with a microscopic timeout:
// every solver aborts almost immediately, exercising the full harness,
// rendering, and CSV paths in seconds.

func TestExperimentsTable2Tiny(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	code := run([]string{"-run", "table2", "-timeout", "1ms", "-csv", dir}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "Table 2") {
		t.Fatalf("missing table output:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "table2.csv")); err != nil {
		t.Fatalf("csv missing: %v", err)
	}
}

func TestExperimentsFig1Tiny(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-run", "fig1", "-timeout", "1ms"}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "points above diagonal") {
		t.Fatalf("missing scatter output:\n%s", out.String())
	}
}

// TestExperimentsFig3Tiny runs Figure 3, which plots the paper's two msu4
// versions against each other: v1 re-encodes the bound with BDDs
// (msu4-bdd), v2 with sorting networks (msu4-sorter).
func TestExperimentsFig3Tiny(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-run", "fig3", "-timeout", "1ms"}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	for _, name := range []string{"msu4-bdd", "msu4-sorter"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("%s missing from the Figure 3 output:\n%s", name, out.String())
		}
	}
}

func TestExperimentsPortfolioRow(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-run", "table2", "-timeout", "1ms", "-portfolio", "2"}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "portfolio-2") {
		t.Fatalf("portfolio row missing from table:\n%s", out.String())
	}
}

func TestExperimentsBadFlag(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-run", "bogus", "-timeout", "1ms"}, &out); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestExperimentsWeightedTableTiny(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	code := run([]string{"-run", "wtable", "-timeout", "1ms", "-csv", dir}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "Weighted table") {
		t.Fatalf("missing weighted table output:\n%s", out.String())
	}
	for _, col := range []string{"wmsu4", "oll"} {
		if !strings.Contains(out.String(), col) {
			t.Fatalf("column %s missing:\n%s", col, out.String())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "wtable.csv")); err != nil {
		t.Fatalf("csv missing: %v", err)
	}
}
