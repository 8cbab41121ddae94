package main

import (
	"fmt"
	"math"
)

// compareOutputs is the oracle every workload's failure count rests on: it
// compares got against want slot by slot and returns the largest absolute
// difference, with an error when an output is missing, short, not a number
// or too far from the reference. The tolerance of an output is relTol times
// its largest reference magnitude (at least 1): CKKS noise grows with the
// values it rides on, and the path-length sum reaches thousands where the
// regressions stay near 2. want must come from an independent cleartext
// evaluation — execute.RunReference on the source program, App.Plain, or
// plain Go arithmetic — never from the compiled or encrypted path under
// test.
func compareOutputs(got, want map[string][]float64, relTol float64) (maxAbsErr float64, err error) {
	for name, w := range want {
		tol := relTol
		for _, v := range w {
			tol = max(tol, relTol*math.Abs(v))
		}
		g, ok := got[name]
		if !ok {
			return maxAbsErr, fmt.Errorf("output %q is missing", name)
		}
		if len(g) < len(w) {
			return maxAbsErr, fmt.Errorf("output %q has %d slots; the reference has %d", name, len(g), len(w))
		}
		for i := range w {
			e := math.Abs(g[i] - w[i])
			if math.IsNaN(e) {
				return maxAbsErr, fmt.Errorf("output %q slot %d is not a number", name, i)
			}
			if e > maxAbsErr {
				maxAbsErr = e
			}
			if e > tol && err == nil {
				err = fmt.Errorf("output %q slot %d is %g; the reference is %g (tolerance %g)", name, i, g[i], w[i], tol)
			}
		}
	}
	return maxAbsErr, err
}
