package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/proof"
)

// certified writes a php instance and its certificate into a temporary
// directory and returns both paths plus the certificate bytes.
func certified(t *testing.T) (inst, certPath string, data []byte) {
	t.Helper()
	in := gen.Pigeonhole(4)
	r, err := maxsat.Solve(in.W, maxsat.Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != maxsat.Optimal || len(r.Certificate) == 0 {
		t.Fatalf("solve: %v, %d certificate bytes", r.Status, len(r.Certificate))
	}
	dir := t.TempDir()
	inst = filepath.Join(dir, "php.wcnf")
	f, err := os.Create(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := cnf.WriteWCNF(f, in.W); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	certPath = filepath.Join(dir, "php.cert")
	writeCert(t, certPath, r.Certificate)
	return inst, certPath, r.Certificate
}

func writeCert(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runCaptured runs the command with stdout and stderr sent to one file and
// returns the exit code and everything it printed.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = f, f
	code := run(args)
	os.Stdout, os.Stderr = stdout, stderr
	f.Close()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

func TestVerified(t *testing.T) {
	inst, cert, _ := certified(t)
	code, out := runCaptured(t, inst, cert)
	if code != 0 || !strings.Contains(out, "VERIFIED") {
		t.Fatalf("exit %d, output %q; want 0 and VERIFIED", code, out)
	}
}

// TestCorruptedByteRejected flips byte 4 to 0xff, as CI's smoke test does.
func TestCorruptedByteRejected(t *testing.T) {
	inst, cert, data := certified(t)
	bad := append([]byte(nil), data...)
	bad[4] = 0xff
	writeCert(t, cert, bad)
	if code, out := runCaptured(t, inst, cert); code != 1 {
		t.Fatalf("exit %d, output %q; want 1", code, out)
	}
}

// TestRetiredOpRejected prepends a record with op value 2, which once
// tagged imported clauses and is now unknown.
func TestRetiredOpRejected(t *testing.T) {
	inst, cert, data := certified(t)
	c, err := proof.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Steps) == 0 {
		t.Fatal("certificate has no proof step to tamper with")
	}
	tr := c.Steps[0].Trace
	tr.Records = append([]proof.Record{{Op: proof.Op(2), Lits: []cnf.Lit{cnf.PosLit(0)}}}, tr.Records...)
	writeCert(t, cert, c.Encode())
	code, out := runCaptured(t, inst, cert)
	if code != 1 || !strings.Contains(out, "REJECTED") {
		t.Fatalf("exit %d, output %q; want 1 and REJECTED", code, out)
	}
}

func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"only-one"}, {"a", "b", "c"}} {
		if code, _ := runCaptured(t, args...); code != 2 {
			t.Fatalf("args %q: exit %d, want 2", args, code)
		}
	}
}
