// Package core defines the EVA language: the term-graph intermediate
// representation described in Section 3 of the paper (types, opcodes,
// programs as DAGs of instructions over Cipher/Vector/Scalar values), basic
// structural validation, and (de)serialization of programs.
//
// A Program is used in three roles, exactly as in the paper: as the input
// format produced by frontends, as the intermediate representation rewritten
// by the compiler passes (package rewrite), and as the executable format
// consumed by the executor (package execute).
package core

import "fmt"

// OpCode enumerates the instructions of the EVA language (Table 2 of the
// paper plus the Input/Constant leaf kinds of the serialized format).
type OpCode int

const (
	// OpInvalid is the zero value and never appears in valid programs.
	OpInvalid OpCode = iota

	// Leaf nodes.
	OpInput    // a value provided at run time (Cipher, Vector or Scalar)
	OpConstant // a compile-time constant (Vector or Scalar; never Cipher)

	// Instructions that frontends may generate.
	OpNegate
	OpAdd
	OpSub
	OpMultiply
	OpRotateLeft
	OpRotateRight

	// FHE-specific instructions inserted by the compiler only.
	OpRelinearize
	OpModSwitch
	OpRescale
)

var opNames = map[OpCode]string{
	OpInvalid:     "INVALID",
	OpInput:       "INPUT",
	OpConstant:    "CONSTANT",
	OpNegate:      "NEGATE",
	OpAdd:         "ADD",
	OpSub:         "SUB",
	OpMultiply:    "MULTIPLY",
	OpRotateLeft:  "ROTATE_LEFT",
	OpRotateRight: "ROTATE_RIGHT",
	OpRelinearize: "RELINEARIZE",
	OpModSwitch:   "MOD_SWITCH",
	OpRescale:     "RESCALE",
}

var opByName = func() map[string]OpCode {
	m := make(map[string]OpCode, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

// String returns the canonical instruction mnemonic.
func (op OpCode) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("OpCode(%d)", int(op))
}

// ParseOpCode converts a mnemonic back to its OpCode.
func ParseOpCode(s string) (OpCode, error) {
	if op, ok := opByName[s]; ok && op != OpInvalid {
		return op, nil
	}
	return OpInvalid, fmt.Errorf("core: unknown opcode %q", s)
}

// IsLeaf reports whether the opcode denotes a node without parameters.
func (op OpCode) IsLeaf() bool { return op == OpInput || op == OpConstant }

// IsCompilerOp reports whether the opcode may only be inserted by the
// compiler (RELINEARIZE, MOD_SWITCH, RESCALE).
func (op OpCode) IsCompilerOp() bool {
	return op == OpRelinearize || op == OpModSwitch || op == OpRescale
}

// IsBinary reports whether the instruction takes two value parameters.
func (op OpCode) IsBinary() bool { return op == OpAdd || op == OpSub || op == OpMultiply }

// IsRotation reports whether the instruction is a rotation.
func (op OpCode) IsRotation() bool { return op == OpRotateLeft || op == OpRotateRight }

// IsModulusChanging reports whether the instruction consumes an element of
// the coefficient modulus chain (RESCALE and MOD_SWITCH).
func (op OpCode) IsModulusChanging() bool { return op == OpRescale || op == OpModSwitch }

// Arity returns the number of term parameters the instruction takes.
func (op OpCode) Arity() int {
	switch {
	case op.IsLeaf():
		return 0
	case op.IsBinary():
		return 2
	default:
		return 1
	}
}

// Type classifies the values flowing through a program (Table 1 of the paper).
type Type int

const (
	// TypeInvalid is the zero value.
	TypeInvalid Type = iota
	// TypeCipher is an encrypted vector of fixed-point values.
	TypeCipher
	// TypeVector is an unencrypted vector of 64-bit floats.
	TypeVector
	// TypeScalar is a single 64-bit float (encoded as a width-1 vector).
	TypeScalar
)

// String returns the type name used by the serialized format.
func (t Type) String() string {
	switch t {
	case TypeCipher:
		return "CIPHER"
	case TypeVector:
		return "VECTOR"
	case TypeScalar:
		return "SCALAR"
	default:
		return "INVALID"
	}
}

// ParseType converts a type name back to its Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "CIPHER":
		return TypeCipher, nil
	case "VECTOR":
		return TypeVector, nil
	case "SCALAR":
		return TypeScalar, nil
	}
	return TypeInvalid, fmt.Errorf("core: unknown type %q", s)
}
