package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPlainCNF(t *testing.T) {
	path := writeFile(t, "m.cnf", "p cnf 1 2\n1 0\n-1 0\n")
	if code := run([]string{path}); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if code := run([]string{"-alg", "msu4-v2", "-stats", path}); code != 0 {
		t.Fatalf("msu4-v2 exit %d", code)
	}
	if code := run([]string{"-alg", "maxsatz", "-no-model", path}); code != 0 {
		t.Fatalf("maxsatz exit %d", code)
	}
}

func TestRunWCNF(t *testing.T) {
	path := writeFile(t, "m.wcnf", "p wcnf 2 3 10\n10 1 2 0\n3 -1 0\n1 -2 0\n")
	if code := run([]string{path}); code != 0 {
		t.Fatalf("wcnf exit %d, want 0", code)
	}
	// Core-guided algorithms reject weighted input.
	if code := run([]string{"-alg", "msu4-v2", path}); code != 1 {
		t.Fatalf("weighted msu4 exit %d, want 1", code)
	}
	if code := run([]string{"-alg", "wmsu1", path}); code != 0 {
		t.Fatalf("wmsu1 exit %d, want 0", code)
	}
}

func TestRunPortfolio(t *testing.T) {
	path := writeFile(t, "m.cnf", "p cnf 2 3\n1 0\n-1 2 0\n-2 0\n")
	if code := run([]string{"-alg", "portfolio", "-jobs", "2", "-stats", path}); code != 0 {
		t.Fatalf("portfolio exit %d, want 0", code)
	}
	// Portfolio handles weighted instances via the weighted line-up.
	wpath := writeFile(t, "m.wcnf", "p wcnf 2 3 10\n10 1 2 0\n3 -1 0\n1 -2 0\n")
	if code := run([]string{"-alg", "portfolio", wpath}); code != 0 {
		t.Fatalf("weighted portfolio exit %d, want 0", code)
	}
}

func TestRunHardUnsat(t *testing.T) {
	path := writeFile(t, "u.wcnf", "p wcnf 1 3 10\n10 1 0\n10 -1 0\n1 1 0\n")
	if code := run([]string{path}); code != 0 {
		t.Fatalf("hard-unsat exit %d, want 0 (status printed)", code)
	}
}

func TestRunErrors(t *testing.T) {
	if code := run([]string{}); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"/nonexistent.cnf"}); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
	path := writeFile(t, "m.cnf", "p cnf 1 1\n1 0\n")
	if code := run([]string{"-alg", "bogus", path}); code != 1 {
		t.Fatalf("bad algorithm: exit %d, want 1", code)
	}
}

// TestRunProofFlags: the proof-output flags are usage errors without the
// flag they depend on, and with it both files are written.
func TestRunProofFlags(t *testing.T) {
	path := writeFile(t, "c2.wcnf", "p wcnf 2 4 10\n1 1 0\n1 -1 0\n1 2 0\n1 -2 0\n")
	dir := t.TempDir()
	drat, bound := filepath.Join(dir, "p.drat"), filepath.Join(dir, "p.cnf")
	if code := run([]string{"-proof", drat, path}); code != 2 {
		t.Fatalf("-proof without -cert: exit %d, want 2", code)
	}
	if code := run([]string{"-cert", "-proof-cnf", bound, path}); code != 2 {
		t.Fatalf("-proof-cnf without -proof: exit %d, want 2", code)
	}
	if _, err := os.Stat(drat); !os.IsNotExist(err) {
		t.Fatalf("a rejected invocation wrote %s (stat error %v)", drat, err)
	}
	if code := run([]string{"-cert", "-proof", drat, "-proof-cnf", bound, path}); code != 0 {
		t.Fatalf("-cert -proof -proof-cnf: exit %d, want 0", code)
	}
	for _, f := range []string{drat, bound} {
		st, err := os.Stat(f)
		if err != nil || st.Size() == 0 {
			t.Fatalf("%s not written (stat %v, err %v)", f, st, err)
		}
	}
}

func TestRunTimeoutUnknown(t *testing.T) {
	// Large enough that a 1ns timeout cannot finish: UNKNOWN path, exit 0.
	var sb []byte
	sb = append(sb, []byte("p cnf 30 60\n")...)
	for v := 1; v <= 30; v++ {
		sb = append(sb, []byte(fmtInt(v)+" 0\n"+fmtInt(-v)+" 0\n")...)
	}
	path := writeFile(t, "big.cnf", string(sb))
	if code := run([]string{"-timeout", "1ns", path}); code != 0 {
		t.Fatalf("timeout run exit %d, want 0", code)
	}
}

func fmtInt(i int) string {
	if i < 0 {
		return "-" + fmtInt(-i)
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return fmtInt(i/10) + string(rune('0'+i%10))
}
