package compile

import (
	"fmt"
	"math"

	"eva/internal/ckks"
	"eva/internal/core"
)

// ScaleTolerance is the largest |log2| distance between a ciphertext's scale
// and its input's compiled scale that Bind accepts: rescaling divides by the
// actual chain prime rather than the nominal power of two, so a chained
// ciphertext's scale wanders a fraction of a bit from the consumer's.
const ScaleTolerance = 0.5

// CipherArg describes a ciphertext offered for a Cipher input: its level, the
// log2 of its scale, the slot width of the program that produced it, and the
// fingerprint of the parameters it was made under (ckks.Parameters.
// Fingerprint), empty when the caller already holds it to the binding ones.
type CipherArg struct {
	Level    int
	LogScale float64
	Width    int
	Params   string
}

// Mismatch is an input whose ciphertext breaks the input contract: the
// property at fault, with what the program wants and what it got.
type Mismatch struct {
	Input string `json:"input"`
	Field string `json:"field"`
	Want  string `json:"want"`
	Got   string `json:"got"`
}

func (m Mismatch) Error() string {
	return fmt.Sprintf("input %q: incompatible %s: want %s, got %s", m.Input, m.Field, m.Want, m.Got)
}

// Bind is the program's input contract. Every input of a level group enters
// at one level, at least each member's Depth; a ciphertext's scale is within
// ScaleTolerance of its input's compiled scale; its width is the program's
// vector size; and it was made under params. Bind returns one Mismatch per
// offending input, in declaration order, and each group's entry level,
// indexed by Input.Group: the lowest level offered to the group, or
// params.MaxLevel() when none was. Inputs encrypted for the run enter there.
func (r *Result) Bind(params *ckks.Parameters, args map[string]CipherArg) (entry []int, mismatches []Mismatch) {
	entry = make([]int, len(r.Inputs))
	setBy := make([]string, len(r.Inputs))
	for _, in := range r.Inputs {
		if a, ok := args[in.Term.Name]; ok && in.Group >= 0 && (setBy[in.Group] == "" || a.Level < entry[in.Group]) {
			entry[in.Group], setBy[in.Group] = a.Level, in.Term.Name
		}
	}
	for g := range entry {
		if setBy[g] == "" {
			entry[g] = params.MaxLevel()
		}
	}
	for _, in := range r.Inputs {
		a, ok := args[in.Term.Name]
		if !ok || in.Term.InType != core.TypeCipher {
			continue
		}
		m := Mismatch{Input: in.Term.Name, Field: "level", Got: fmt.Sprint(a.Level)}
		switch {
		case a.Params != "" && a.Params != params.Fingerprint():
			m.Field, m.Want, m.Got = "params", params.Fingerprint(), a.Params
		case a.Width != r.Program.VecSize:
			m.Field, m.Want, m.Got = "width", fmt.Sprint(r.Program.VecSize), fmt.Sprint(a.Width)
		case in.Group >= 0 && a.Level != entry[in.Group]:
			m.Want = fmt.Sprintf("%d (the level of %s)", entry[in.Group], setBy[in.Group])
		case a.Level < in.Depth:
			m.Want = fmt.Sprintf(">=%d", in.Depth)
		case math.Abs(a.LogScale-in.Term.LogScale) > ScaleTolerance:
			m.Field, m.Want = "scale", fmt.Sprintf("2^%.2f (±%.1f)", in.Term.LogScale, ScaleTolerance)
			m.Got = fmt.Sprintf("2^%.2f", a.LogScale)
		default:
			continue
		}
		mismatches = append(mismatches, m)
	}
	return entry, mismatches
}
