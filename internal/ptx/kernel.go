package ptx

import (
	"fmt"
)

// Param is a kernel parameter. Pointer parameters are declared .u64.
type Param struct {
	Name string
	Type Type
}

// ArrayDecl declares a statically sized array in the shared or local state
// space (e.g. the SpillStack of paper Listing 4).
type ArrayDecl struct {
	Name  string
	Space Space
	Align int
	Size  int64 // bytes
}

// Kernel is a single PTX entry function: parameters, state-space array
// declarations, a typed virtual register file, and a linear instruction
// list with labels.
type Kernel struct {
	Name     string
	Params   []Param
	Arrays   []ArrayDecl
	RegTypes []Type // register types indexed by Reg
	Insts    []Inst
}

// NewKernel returns an empty kernel with the given name.
func NewKernel(name string) *Kernel {
	return &Kernel{Name: name}
}

// NewReg allocates a fresh virtual register of the given type and returns
// its index.
func (k *Kernel) NewReg(t Type) Reg {
	k.RegTypes = append(k.RegTypes, t)
	return Reg(len(k.RegTypes) - 1)
}

// NumRegs returns the number of registers (virtual or physical) declared in
// the kernel.
func (k *Kernel) NumRegs() int { return len(k.RegTypes) }

// RegType returns the type of register r.
func (k *Kernel) RegType(r Reg) Type {
	if r < 0 || int(r) >= len(k.RegTypes) {
		return TypeNone
	}
	return k.RegTypes[r]
}

// AddParam appends a kernel parameter.
func (k *Kernel) AddParam(name string, t Type) {
	k.Params = append(k.Params, Param{Name: name, Type: t})
}

// Param returns the parameter with the given name, if present.
func (k *Kernel) Param(name string) (Param, bool) {
	for _, p := range k.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// ParamOffset returns the byte offset of the named parameter in the kernel
// parameter block, and the total size of the block. Parameters are laid out
// in declaration order, each aligned to its own size.
func (k *Kernel) ParamOffset(name string) (off int64, ok bool) {
	cur := int64(0)
	for _, p := range k.Params {
		sz := int64(p.Type.Bytes())
		cur = (cur + sz - 1) / sz * sz
		if p.Name == name {
			return cur, true
		}
		cur += sz
	}
	return 0, false
}

// AddArray appends a shared/local array declaration.
func (k *Kernel) AddArray(d ArrayDecl) {
	k.Arrays = append(k.Arrays, d)
}

// Array returns the declaration of the named array, if present.
func (k *Kernel) Array(name string) (ArrayDecl, bool) {
	for _, d := range k.Arrays {
		if d.Name == name {
			return d, true
		}
	}
	return ArrayDecl{}, false
}

// SharedBytes returns the total statically declared shared memory of the
// kernel in bytes (each array aligned to its declared alignment). This is
// the ShmSize parameter of paper Table 1.
func (k *Kernel) SharedBytes() int64 {
	return k.spaceBytes(SpaceShared)
}

// LocalBytes returns the total declared local memory per thread in bytes.
func (k *Kernel) LocalBytes() int64 {
	return k.spaceBytes(SpaceLocal)
}

func (k *Kernel) spaceBytes(sp Space) int64 {
	total := int64(0)
	for _, d := range k.Arrays {
		if d.Space != sp {
			continue
		}
		align := int64(d.Align)
		if align <= 0 {
			align = 1
		}
		total = (total + align - 1) / align * align
		total += d.Size
	}
	return total
}

// ArrayOffset returns the byte offset of the named array within its state
// space, following the same layout rule as SharedBytes.
func (k *Kernel) ArrayOffset(name string) (off int64, ok bool) {
	var target ArrayDecl
	target, ok = k.Array(name)
	if !ok {
		return 0, false
	}
	cur := int64(0)
	for _, d := range k.Arrays {
		if d.Space != target.Space {
			continue
		}
		align := int64(d.Align)
		if align <= 0 {
			align = 1
		}
		cur = (cur + align - 1) / align * align
		if d.Name == name {
			return cur, true
		}
		cur += d.Size
	}
	return 0, false
}

// Append adds an instruction to the kernel and returns its index.
func (k *Kernel) Append(in Inst) int {
	k.Insts = append(k.Insts, in)
	return len(k.Insts) - 1
}

// LabelIndex returns the instruction index carrying the given label.
func (k *Kernel) LabelIndex(label string) (int, bool) {
	for i := range k.Insts {
		if k.Insts[i].Label == label {
			return i, true
		}
	}
	return 0, false
}

// Clone returns a deep copy of the kernel. The copies of all instructions'
// Srcs share one backing array, each cut with its capacity capped (as
// Inst.Clone's copy is), so an append to one instruction's Srcs reallocates
// instead of overwriting its neighbour's.
func (k *Kernel) Clone() *Kernel {
	out := &Kernel{
		Name:     k.Name,
		Params:   append([]Param(nil), k.Params...),
		Arrays:   append([]ArrayDecl(nil), k.Arrays...),
		RegTypes: append([]Type(nil), k.RegTypes...),
		Insts:    make([]Inst, len(k.Insts)),
	}
	n := 0
	for i := range k.Insts {
		n += len(k.Insts[i].Srcs)
	}
	srcs := make([]Operand, 0, n)
	for i := range k.Insts {
		in := k.Insts[i]
		if len(in.Srcs) == 0 {
			in.Srcs = nil
		} else {
			start := len(srcs)
			srcs = append(srcs, in.Srcs...)
			in.Srcs = srcs[start:len(srcs):len(srcs)]
		}
		out.Insts[i] = in
	}
	return out
}

// RegCounts returns the number of registers of each class declared in the
// kernel.
func (k *Kernel) RegCounts() (n32, n64, npred int) {
	for _, t := range k.RegTypes {
		switch t.Class() {
		case Class32:
			n32++
		case Class64:
			n64++
		case ClassPred:
			npred++
		}
	}
	return
}

// Validate checks structural invariants of the kernel: register indices in
// range, guard registers are predicates, branch targets resolve, memory
// operands are well formed, operand register classes match the instruction
// type where PTX requires it. It returns the first violation found.
//
// Validate is the pass-agnostic entry point; it delegates to Verify, which
// additionally attributes failures to a pipeline stage.
func (k *Kernel) Validate() error {
	return Verify(k, "")
}

// Stats summarizes the static composition of a kernel.
type Stats struct {
	Insts      int
	Loads      int
	Stores     int
	LocalOps   int
	SharedOps  int
	GlobalOps  int
	Branches   int
	Barriers   int
	SFU        int
	SpillBytes int64 // bytes moved by local/shared spill ld/st (static count)
}

// StaticStats computes Stats over the kernel's instruction list.
func (k *Kernel) StaticStats() Stats {
	var s Stats
	s.Insts = len(k.Insts)
	for i := range k.Insts {
		in := &k.Insts[i]
		switch {
		case in.Op == OpLd:
			s.Loads++
		case in.Op == OpSt:
			s.Stores++
		case in.Op == OpBra:
			s.Branches++
		case in.Op == OpBar:
			s.Barriers++
		case in.Op.IsSFU():
			s.SFU++
		}
		if in.Op.IsMemory() {
			switch in.Space {
			case SpaceLocal:
				s.LocalOps++
				s.SpillBytes += int64(in.Type.Bytes())
			case SpaceShared:
				s.SharedOps++
			case SpaceGlobal:
				s.GlobalOps++
			}
		}
	}
	return s
}

// SpillOverhead summarizes allocator-inserted instructions by provenance
// tag and state space: the static Num_local, Num_shm, and Num_others terms
// of the paper's TPSC spill-cost model (§6).
type SpillOverhead struct {
	LocalLoads   int
	LocalStores  int
	SharedLoads  int
	SharedStores int
	AddrInsts    int
}

// Locals returns the number of local-memory spill instructions.
func (o SpillOverhead) Locals() int { return o.LocalLoads + o.LocalStores }

// Shareds returns the number of shared-memory spill instructions.
func (o SpillOverhead) Shareds() int { return o.SharedLoads + o.SharedStores }

// SpillOverhead scans the kernel's instruction metadata tags.
func (k *Kernel) SpillOverhead() SpillOverhead {
	var o SpillOverhead
	for i := range k.Insts {
		in := &k.Insts[i]
		switch in.Meta {
		case MetaSpillLoad:
			if in.Space == SpaceShared {
				o.SharedLoads++
			} else {
				o.LocalLoads++
			}
		case MetaSpillStore:
			if in.Space == SpaceShared {
				o.SharedStores++
			} else {
				o.LocalStores++
			}
		case MetaSpillAddr:
			o.AddrInsts++
		}
	}
	return o
}

// Module is a collection of kernels, mirroring a PTX translation unit.
type Module struct {
	Version string // PTX version header, e.g. "3.2"
	Target  string // target architecture, e.g. "sm_20"
	Kernels []*Kernel
}

// Kernel returns the kernel with the given name, if present.
func (m *Module) Kernel(name string) (*Kernel, bool) {
	for _, k := range m.Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return nil, false
}

// Select picks the kernel a compile works on: the named one, or, when name
// is empty, the module's only kernel. It fails on an empty module, a
// missing name, and an unnamed choice among several kernels (the error
// lists their names).
func (m *Module) Select(name string) (*Kernel, error) {
	switch {
	case len(m.Kernels) == 0:
		return nil, fmt.Errorf("ptx: module has no kernels")
	case name != "":
		k, ok := m.Kernel(name)
		if !ok {
			return nil, fmt.Errorf("ptx: kernel %q not found in module", name)
		}
		return k, nil
	case len(m.Kernels) == 1:
		return m.Kernels[0], nil
	}
	names := make([]string, len(m.Kernels))
	for i, k := range m.Kernels {
		names[i] = k.Name
	}
	return nil, fmt.Errorf("ptx: module has %d kernels (%v); select one by name", len(names), names)
}
