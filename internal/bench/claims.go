package bench

import (
	"fmt"
	"io"
)

// Tolerances of the accuracy claims. The paper reports encrypted accuracy
// equal to the unencrypted model's (Table 4) and application results within
// CKKS noise of the plain computation (Table 8).
const (
	scoreTolerance = 2e-2
	appTolerance   = 5e-2
)

// Claim is one of the paper's machine-independent claims, checked on one
// network or application.
type Claim struct {
	ID      string // "T4", "T5 cost", "T5 measured", "T6" or "T8"
	Subject string // the network or application
	OK      bool
	Detail  string // the numbers compared
}

// Claims checks the paper's claims on the harness's results:
//
//   - T6: at 128-bit security EVA's logN ≤ CHET's, its logQP < CHET's and
//     its r ≤ CHET's;
//   - T5 cost: EVA's estimated cost is below CHET's;
//   - T5 measured: EVA runs faster than CHET at Table 5's thread count;
//   - T4: both pipelines classify as the reference does, every score within
//     2e-2 of it;
//   - T8: every application output within 5e-2 of its plain reference.
//
// Networks that were only compiled get T6 and T5 cost. Figure 7 depends on
// the machine and is not checked.
func Claims(nets []*NetworkResult, apps []*AppResult) []Claim {
	var out []Claim
	add := func(id, subject string, ok bool, format string, args ...any) {
		out = append(out, Claim{ID: id, Subject: subject, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	for _, r := range nets {
		name, e, c := r.Network.Name, r.EVAParams, r.CHETParams
		add("T6", name, e.LogN <= c.LogN && e.LogQP < c.LogQP && e.Primes <= c.Primes,
			"(logN, logQP, r): EVA (%d, %d, %d), CHET (%d, %d, %d)", e.LogN, e.LogQP, e.Primes, c.LogN, c.LogQP, c.Primes)
		add("T5 cost", name, e.Cost < c.Cost, "estimated cost: EVA %.3g, CHET %.3g", e.Cost, c.Cost)
		if r.EVA == nil {
			continue
		}
		add("T5 measured", name, r.Speedup() > 1, "speedup %.2fx on %d threads", r.Speedup(), r.Workers)
		add("T4", name,
			r.Agrees(r.EVA) && r.Agrees(r.CHET) && r.EVA.MaxError <= scoreTolerance && r.CHET.MaxError <= scoreTolerance,
			"argmax agrees: EVA %v, CHET %v; max |score - ref|: EVA %.2e, CHET %.2e",
			r.Agrees(r.EVA), r.Agrees(r.CHET), r.EVA.MaxError, r.CHET.MaxError)
	}
	for _, a := range apps {
		add("T8", a.App.Name, a.Run.MaxError <= appTolerance, "max err %.2e", a.Run.MaxError)
	}
	return out
}

// PrintClaims prints the claims and returns how many failed.
func PrintClaims(w io.Writer, claims []Claim) (failed int) {
	fmt.Fprintln(w, "Claims: the paper's machine-independent results, checked on these runs (Figure 7 is not checked)")
	tw := newTable(w)
	fmt.Fprintln(tw, "Claim\tSubject\tResult\tDetail")
	for _, c := range claims {
		result := "pass"
		if !c.OK {
			result, failed = "FAIL", failed+1
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", c.ID, c.Subject, result, c.Detail)
	}
	tw.Flush()
	return failed
}
