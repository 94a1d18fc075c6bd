package opt

import (
	"context"
	"testing"
	"time"

	"repro/internal/cnf"
)

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusOptimal: "OPTIMAL",
		StatusUnsat:   "UNSATISFIABLE",
		StatusUnknown: "UNKNOWN",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestMaxSatisfied(t *testing.T) {
	r := Result{Cost: 2}
	if got := r.MaxSatisfied(8); got != 6 {
		t.Fatalf("MaxSatisfied = %d, want 6", got)
	}
}

func TestOptionsBudget(t *testing.T) {
	dl := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	o := Options{MemBytes: 1 << 20}
	b := o.Budget(ctx)
	if !b.Deadline.Equal(dl) || b.Ctx != ctx || b.MaxMemory != 1<<20 {
		t.Fatalf("budget does not mirror options/context: %+v", b)
	}
	// A context without a deadline leaves the budget's deadline zero.
	b = o.Budget(context.Background())
	if !b.Deadline.IsZero() {
		t.Fatalf("deadline should be zero without a context deadline: %v", b.Deadline)
	}
}

func TestResultString(t *testing.T) {
	r := Result{
		Status: StatusOptimal, Cost: 2, LowerBound: 2,
		Iterations: 5, SatCalls: 3, UnsatCalls: 2, Conflicts: 77,
		Elapsed: 1500 * time.Millisecond,
	}
	want := "OPTIMAL cost=2 lb=2 iters=5 (sat 3, unsat 2) conflicts=77 1.500s"
	if got := r.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	r.Solver = "msu4-v2"
	if got := r.String(); got != "msu4-v2 "+want {
		t.Fatalf("String() with solver = %q", got)
	}
}

func TestVerifyModel(t *testing.T) {
	w := cnf.NewWCNF(2)
	w.AddHard(cnf.FromDIMACS(1))
	w.AddSoft(1, cnf.FromDIMACS(2))
	w.AddSoft(1, cnf.FromDIMACS(-2))

	good := Result{Cost: 1, Model: cnf.Assignment{true, true}}
	if !VerifyModel(w, good) {
		t.Fatal("consistent model rejected")
	}
	wrongCost := Result{Cost: 0, Model: cnf.Assignment{true, true}}
	if VerifyModel(w, wrongCost) {
		t.Fatal("inconsistent cost accepted")
	}
	hardViolated := Result{Cost: 1, Model: cnf.Assignment{false, true}}
	if VerifyModel(w, hardViolated) {
		t.Fatal("hard-violating model accepted")
	}
	if VerifyModel(w, Result{Cost: 1}) {
		t.Fatal("nil model accepted")
	}
	if VerifyModel(w, Result{Cost: 1, Model: cnf.Assignment{true}}) {
		t.Fatal("short model accepted")
	}
}
