// Command maxsat is a MaxSAT solver front-end: it reads a DIMACS .cnf
// (plain MaxSAT) or .wcnf (weighted partial MaxSAT) file and prints the
// result in the MaxSAT-evaluation output convention:
//
//	o <cost>            optimum (or best known) cost
//	s OPTIMUM FOUND     (or s UNSATISFIABLE / s UNKNOWN)
//	v <model literals>  witness assignment, DIMACS-signed
//
// Usage:
//
//	maxsat [-alg msu4-v2] [-jobs 4] [-pre] [-timeout 30s] [-stats] [-no-model] file
//
// -cert makes OPTIMAL and UNSATISFIABLE verdicts carry a machine-checkable
// proof certificate, re-validated in-process before the result is printed.
// With -cert, -proof writes the certificate's refutation as standard ASCII
// DRAT and -proof-cnf writes the DIMACS formula it refutes, so external
// tools (drat-trim) can cross-check the trace. -proof without -cert, and
// -proof-cnf without -proof, are usage errors (exit 2):
//
//	maxsat -cert -proof inst.drat -proof-cnf inst.bound.cnf inst.wcnf
//	drat-trim inst.bound.cnf inst.drat
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/cnf"
	"repro/internal/proof"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("maxsat", flag.ContinueOnError)
	var (
		alg     = fs.String("alg", "", "algorithm: auto (default), msu4-v2, msu1, msu2, msu3, wmsu1, wmsu4, oll, pbo, pbo-bin, maxsatz, portfolio")
		jobs    = fs.Int("jobs", 0, "parallel solvers raced by -alg portfolio (0 = full line-up)")
		pre     = fs.Bool("pre", false, "soft-aware preprocessing of the hard clauses before optimizing")
		timeout = fs.Duration("timeout", 0, "overall solve timeout (0 = unbounded)")
		stats   = fs.Bool("stats", false, "print iteration/conflict statistics")
		noModel = fs.Bool("no-model", false, "suppress the v line")
		cert    = fs.Bool("cert", false, "emit and verify a proof certificate for OPTIMAL/UNSATISFIABLE verdicts")
		prf     = fs.String("proof", "", "with -cert: write the certificate's refutation as ASCII DRAT to this file")
		prfCNF  = fs.String("proof-cnf", "", "with -proof: write the DIMACS formula the DRAT file refutes")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: maxsat [flags] <file.cnf|file.wcnf>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if *prf != "" && !*cert {
		fmt.Fprintln(os.Stderr, "c error: -proof requires -cert")
		return 2
	}
	if *prfCNF != "" && *prf == "" {
		fmt.Fprintln(os.Stderr, "c error: -proof-cnf requires -proof")
		return 2
	}
	path := fs.Arg(0)

	w, err := maxsat.ParseWCNFFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c error: %v\n", err)
		return 1
	}
	fmt.Printf("c instance %s: %d vars, %d clauses (%d hard, %d soft)\n",
		path, w.NumVars, w.NumClauses(), w.NumHard(), w.NumSoft())

	o := maxsat.Options{
		Algorithm:   maxsat.Algorithm(*alg),
		Timeout:     *timeout,
		Parallelism: *jobs,
		Preprocess:  *pre,
		Certify:     *cert,
	}
	start := time.Now()
	r, err := maxsat.Solve(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c error: %v\n", err)
		return 1
	}
	fmt.Printf("c algorithm %s, %.3fs\n", r.Algorithm, time.Since(start).Seconds())
	if *cert && r.Certificate != nil {
		if err := maxsat.CheckCertificate(w, r.Certificate); err != nil {
			fmt.Fprintf(os.Stderr, "c error: certificate failed verification: %v\n", err)
			return 1
		}
		fmt.Printf("c certificate %d bytes, verified by the independent checker\n", len(r.Certificate))
		if *prf != "" {
			if err := writeProof(w, r.Certificate, *prf, *prfCNF); err != nil {
				fmt.Fprintf(os.Stderr, "c error: %v\n", err)
				return 1
			}
		}
	}
	if *stats {
		fmt.Printf("c %v\n", r)
	}
	switch r.Status {
	case maxsat.Optimal:
		fmt.Printf("o %d\n", r.Cost)
		fmt.Println("s OPTIMUM FOUND")
		if !*noModel {
			printModel(r.Model, w.NumVars)
		}
	case maxsat.Unsatisfiable:
		fmt.Println("s UNSATISFIABLE")
	default:
		if r.Cost >= 0 {
			fmt.Printf("o %d\n", r.Cost)
		}
		fmt.Println("s UNKNOWN")
	}
	return 0
}

// writeProof renders the certificate's refutation as standard ASCII DRAT,
// and (when cnfPath is set) the formula that trace refutes in DIMACS form —
// the pair an external checker like drat-trim consumes.
func writeProof(w *maxsat.WCNF, certBytes []byte, proofPath, cnfPath string) error {
	c, err := proof.Decode(certBytes)
	if err != nil {
		return err
	}
	if len(c.Steps) == 0 {
		fmt.Println("c no proof step to dump: a zero-cost optimum is certified by its model alone")
		return nil
	}
	st := c.Steps[0]
	var f *cnf.Formula
	if c.Kind == proof.KindUnsat {
		f = w.Hards()
	} else {
		f = proof.BoundFormula(w, st.Bound)
	}
	if err := create(proofPath, st.Trace.WriteDRAT); err != nil {
		return err
	}
	fmt.Printf("c DRAT proof (%d records) written to %s\n", len(st.Trace.Records), proofPath)
	if cnfPath != "" {
		err := create(cnfPath, func(out io.Writer) error { return cnf.WriteDIMACS(out, f) })
		if err != nil {
			return err
		}
		fmt.Printf("c refuted formula (%d vars, %d clauses) written to %s\n",
			f.NumVars, f.NumClauses(), cnfPath)
	}
	return nil
}

// create writes the file at path through write and reports the first error,
// the one Close returns included.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printModel(m maxsat.Assignment, n int) {
	var sb strings.Builder
	sb.WriteString("v")
	for v := 0; v < n && v < len(m); v++ {
		if m[v] {
			fmt.Fprintf(&sb, " %d", v+1)
		} else {
			fmt.Fprintf(&sb, " -%d", v+1)
		}
	}
	fmt.Println(sb.String())
}
