// Equivalence checking instances as MaxSAT workloads — the dominant family
// in the paper's 691-instance industrial suite.
//
// Two structurally different but functionally equal adders are combined
// into a miter whose "circuits disagree" output is asserted: an
// unsatisfiable CNF. Read as plain MaxSAT, its optimum is 1 (retract the
// assertion and everything else is realizable), and the interesting
// comparison is *time to prove it* per algorithm — the paper's Figure 1/2
// phenomenon in miniature.
//
//	go run ./examples/equivalence
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/gen"
)

func main() {
	for _, bits := range []int{4, 8, 12} {
		in := gen.EquivMiter(bits)
		fmt.Printf("%s: %d vars, %d clauses (ripple vs carry-select, %d-bit)\n",
			in.Name, in.W.NumVars, in.W.NumClauses(), bits)
		for _, algo := range []maxsat.Algorithm{
			maxsat.AlgoMSU4V2, maxsat.AlgoMSU3, maxsat.AlgoPBO, maxsat.AlgoBnB,
		} {
			w := in.W.Clone()
			r, err := maxsat.Solve(w, maxsat.Options{Algorithm: algo, Timeout: 5 * time.Second})
			if err != nil {
				log.Fatal(err)
			}
			verdict := fmt.Sprintf("cost %d", r.Cost)
			if r.Status == maxsat.Unknown {
				verdict = "ABORTED (timeout)"
			}
			fmt.Printf("  %-8s %-18s %10.3fms\n",
				algo, verdict, float64(r.Elapsed.Microseconds())/1000)
		}
		fmt.Println()
	}
	fmt.Println("note how the core-guided algorithms stay flat while the")
	fmt.Println("branch-and-bound baseline's time explodes with circuit size —")
	fmt.Println("the shape of the paper's Table 1 and Figure 1.")
}
