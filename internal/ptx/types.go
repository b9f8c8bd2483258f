// Package ptx defines an in-memory intermediate representation for a subset
// of NVIDIA's Parallel Thread Execution (PTX) virtual ISA, together with a
// text parser, printer, and a programmatic kernel builder.
//
// The subset covers everything the CRAT compiler framework (Xie et al.,
// MICRO 2015) manipulates: typed virtual registers in SSA-like "infinite
// register" style, integer/floating arithmetic, predication, branches,
// barriers, and loads/stores to the global, local, shared, and param state
// spaces — including the ".local" SpillStack arrays and 64-bit addressing
// registers that register spilling introduces (paper Listings 1-4).
package ptx

import "fmt"

// Type is a PTX operand type such as .u32 or .f64. The type determines both
// the width of the value and the interpretation arithmetic gives its bits.
type Type uint8

// Supported PTX types.
const (
	TypeNone Type = iota
	U8
	U16
	U32
	U64
	S8
	S16
	S32
	S64
	F32
	F64
	B8
	B16
	B32
	B64
	Pred
)

var typeNames = map[Type]string{
	U8: "u8", U16: "u16", U32: "u32", U64: "u64",
	S8: "s8", S16: "s16", S32: "s32", S64: "s64",
	F32: "f32", F64: "f64",
	B8: "b8", B16: "b16", B32: "b32", B64: "b64",
	Pred: "pred",
}

var typeByName = byName(typeNames)

// byName inverts one of the spelling tables (typeNames, opcodeNames,
// cmpNames, specialNames), which stay the single source of truth, for the
// parser's per-token lookups.
func byName[K comparable](names map[K]string) map[string]K {
	out := make(map[string]K, len(names))
	for k, n := range names {
		out[n] = k
	}
	return out
}

// TypeFromName parses a PTX type suffix such as "u32" (without the leading
// dot). It returns TypeNone and false if the name is unknown.
func TypeFromName(name string) (Type, bool) {
	t, ok := typeByName[name]
	return t, ok
}

// String returns the PTX spelling of the type without the leading dot.
func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Bits returns the width of the type in bits. Predicates report 1.
func (t Type) Bits() int {
	switch t {
	case U8, S8, B8:
		return 8
	case U16, S16, B16:
		return 16
	case U32, S32, B32, F32:
		return 32
	case U64, S64, B64, F64:
		return 64
	case Pred:
		return 1
	}
	return 0
}

// Bytes returns the width of the type in bytes (predicates report 1).
func (t Type) Bytes() int {
	if t == Pred {
		return 1
	}
	return t.Bits() / 8
}

// IsFloat reports whether the type is a floating-point type.
func (t Type) IsFloat() bool { return t == F32 || t == F64 }

// IsSigned reports whether the type is a signed integer type.
func (t Type) IsSigned() bool { return t == S8 || t == S16 || t == S32 || t == S64 }

// IsInt reports whether the type is an integer (signed, unsigned or bits) type.
func (t Type) IsInt() bool {
	switch t {
	case U8, U16, U32, U64, S8, S16, S32, S64, B8, B16, B32, B64:
		return true
	}
	return false
}

// RegClass identifies the physical register file class a value occupies.
// 64-bit values consume two consecutive 32-bit hardware registers, which is
// how the allocator charges them against the per-thread register budget.
type RegClass uint8

// Register classes.
const (
	ClassNone RegClass = iota
	Class32            // one 32-bit hardware register
	Class64            // two 32-bit hardware registers
	ClassPred          // predicate file; not charged against the budget
)

// String names the register class.
func (c RegClass) String() string {
	switch c {
	case Class32:
		return "r32"
	case Class64:
		return "r64"
	case ClassPred:
		return "pred"
	}
	return "none"
}

// Slots returns how many 32-bit hardware registers a value of this class
// occupies. Predicates occupy zero.
func (c RegClass) Slots() int {
	switch c {
	case Class32:
		return 1
	case Class64:
		return 2
	}
	return 0
}

// Class returns the register class of the type.
func (t Type) Class() RegClass {
	switch t {
	case Pred:
		return ClassPred
	case U64, S64, B64, F64:
		return Class64
	case TypeNone:
		return ClassNone
	default:
		return Class32
	}
}

// Space is a PTX state space for memory instructions.
type Space uint8

// Memory state spaces.
const (
	SpaceNone Space = iota
	SpaceGlobal
	SpaceLocal
	SpaceShared
	SpaceParam
)

// String returns the PTX spelling of the space without the leading dot.
func (s Space) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceLocal:
		return "local"
	case SpaceShared:
		return "shared"
	case SpaceParam:
		return "param"
	}
	return "none"
}

// SpaceFromName parses a state-space suffix such as "global".
func SpaceFromName(name string) (Space, bool) {
	switch name {
	case "global":
		return SpaceGlobal, true
	case "local":
		return SpaceLocal, true
	case "shared":
		return SpaceShared, true
	case "param":
		return SpaceParam, true
	}
	return SpaceNone, false
}

// Special identifies a read-only special register (%tid.x and friends).
type Special uint8

// Special registers.
const (
	SpecNone Special = iota
	SpecTidX
	SpecTidY
	SpecTidZ
	SpecNTidX
	SpecNTidY
	SpecNTidZ
	SpecCtaIdX
	SpecCtaIdY
	SpecCtaIdZ
	SpecNCtaIdX
	SpecNCtaIdY
	SpecNCtaIdZ
	SpecLaneId
	SpecWarpId
)

var specialNames = map[Special]string{
	SpecTidX: "%tid.x", SpecTidY: "%tid.y", SpecTidZ: "%tid.z",
	SpecNTidX: "%ntid.x", SpecNTidY: "%ntid.y", SpecNTidZ: "%ntid.z",
	SpecCtaIdX: "%ctaid.x", SpecCtaIdY: "%ctaid.y", SpecCtaIdZ: "%ctaid.z",
	SpecNCtaIdX: "%nctaid.x", SpecNCtaIdY: "%nctaid.y", SpecNCtaIdZ: "%nctaid.z",
	SpecLaneId: "%laneid", SpecWarpId: "%warpid",
}

// String returns the PTX spelling of the special register (with leading %).
func (s Special) String() string {
	if n, ok := specialNames[s]; ok {
		return n
	}
	return fmt.Sprintf("%%special(%d)", uint8(s))
}

var specialByName = byName(specialNames)

// SpecialFromName parses a special-register name such as "%tid.x".
func SpecialFromName(name string) (Special, bool) {
	s, ok := specialByName[name]
	return s, ok
}
