package vec

import (
	"errors"
	"fmt"
	"math/bits"

	"crat/internal/ptx"
	"crat/internal/sem"
)

// NullPageBytes is the reserved low region of the global address space:
// an access under it indicates an uninitialized or corrupted pointer
// (sem.Memory never hands out addresses this low).
const NullPageBytes = 4096

// Entry is one SIMT reconvergence stack entry: the lanes in Mask run from
// PC until they reach RPC, where the entry pops and the entry below resumes.
type Entry struct {
	PC, RPC int
	Mask    uint64
}

// Warp is one warp's functional state. regs holds nRegs consecutive 32-lane
// planes (register r of lane l lives at regs[r*32+l]), the layout the
// vector kernels run over.
type Warp struct {
	Stack   []Entry
	CTA     int // block id (%ctaid.x)
	BaseTid int // block-relative thread id of lane 0
	regs    []uint64
	locals  [][]byte // per-lane local frame (zero-length when the kernel has none)
	shared  []byte   // the block's shared buffer; only the declared segment is addressable
}

// Plane returns register r's 32-lane plane.
func (w *Warp) Plane(r ptx.Reg) *[32]uint64 {
	return (*[32]uint64)(w.regs[int(r)*32:])
}

// Top returns the warp's current stack entry.
func (w *Warp) Top() *Entry { return &w.Stack[len(w.Stack)-1] }

// ExecMask returns the lanes that execute u: the active lanes whose guard
// holds.
func (w *Warp) ExecMask(u *Op) uint64 {
	mask := w.Top().Mask
	if u.Guard == ptx.NoReg {
		return mask
	}
	g := w.Plane(u.Guard)
	gm := uint64(0)
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		if (g[l] != 0) != u.GuardNeg {
			gm |= 1 << uint(l)
		}
	}
	return gm
}

// Exit terminates the lanes in mask across the whole stack and reports
// whether the warp has no lanes left.
func (w *Warp) Exit(mask uint64) bool {
	for i := range w.Stack {
		w.Stack[i].Mask &^= mask
	}
	for len(w.Stack) > 0 && w.Stack[len(w.Stack)-1].Mask == 0 {
		w.Stack = w.Stack[:len(w.Stack)-1]
	}
	if len(w.Stack) == 0 {
		return true
	}
	w.popReconverged()
	return false
}

// popReconverged pops stack entries that reached their reconvergence point.
func (w *Warp) popReconverged() {
	for len(w.Stack) > 1 {
		top := w.Top()
		if top.PC != top.RPC && top.Mask != 0 {
			return
		}
		w.Stack = w.Stack[:len(w.Stack)-1]
	}
}

// Block is one thread block's storage. Its warps' register planes and
// threads' local frames are slices of two arenas, so a block costs the
// same few allocations however many threads it has, and a finished block's
// storage is cleared and reused for the next.
type Block struct {
	shared []byte
	regs   []uint64
	locals []byte
	frames [][]byte // one local frame per thread
}

// Clear zeroes the block's storage for its next use.
func (b *Block) Clear() {
	clear(b.shared)
	clear(b.regs)
	clear(b.locals)
}

// Status says what executing one instruction did to its warp.
type Status uint8

const (
	// Running: the warp continues at its new stack top.
	Running Status = iota
	// AtBarrier: the warp passed a bar.sync and parks until the engine
	// releases its block's barrier.
	AtBarrier
	// Exited: every lane of the warp has exited.
	Exited
	// Faulted: a lane faulted; Machine.Fault says which and why.
	Faulted
)

// FaultKind classifies the lane faults of the shared rules. They are the
// first three kinds of both engines' fault taxonomies, in the same order.
type FaultKind uint8

const (
	// FaultExec: a statically unsupported instruction executed.
	FaultExec FaultKind = iota
	// FaultMemOOB: a local, shared or param access fell outside the lane's
	// local frame, the kernel's declared shared segment or the param block.
	FaultMemOOB
	// FaultNullGlobal: a global access hit the null page.
	FaultNullGlobal
)

// Fault is the lowest faulting lane of one instruction and, for a memory
// fault, the access that broke the bounds rules.
type Fault struct {
	Kind  FaultKind
	Lane  int
	Space ptx.Space
	Addr  uint64
	Size  int
	Limit int64
	Err   error // FaultExec: the instruction's evaluation error
}

// Took returns the lanes of mask that took effect before the fault: those
// below the faulting lane.
func (f *Fault) Took(mask uint64) uint64 { return mask & (1<<uint(f.Lane) - 1) }

// Machine is the functional half of one launch, the part both engines
// share: the lowered program, global memory, the parameter block, the launch
// shape the special registers read, and the SIMT, ld.param and memory rules
// that move a warp through the program. An engine drives it one instruction
// at a time and keeps its own run loop, barriers, timing and fault type.
type Machine struct {
	Prog        *Program
	global      sem.PageCache
	params      []byte
	grid, block int
	warpSize    int
	nRegs       int
	localBytes  int
	sharedLimit int64         // the kernel's declared shared segment
	spec        [3][32]uint64 // special-register source planes, one per slot

	// Fault describes the last instruction that returned Faulted.
	Fault Fault
}

// NewMachine is the launch contract both engines share: it checks a launch
// of k over mem — grid blocks of block threads in warps of warpSize lanes
// (at most 32, the plane width), with one raw value per kernel parameter —
// and prepares its functional state from k's Program (ProgramFor). It
// rejects a nil kernel, a kernel that fails validation, a param count that
// differs from k's and a non-positive grid or block, in that order, with an
// unprefixed error each engine wraps in its own name.
func NewMachine(k *ptx.Kernel, mem *sem.Memory, params []uint64, grid, block, warpSize int) (Machine, error) {
	if k == nil {
		return Machine{}, errors.New("nil kernel")
	}
	prog, err := ProgramFor(k)
	if err != nil {
		return Machine{}, err
	}
	if len(params) != len(k.Params) {
		return Machine{}, fmt.Errorf("%d param values for %d params", len(params), len(k.Params))
	}
	if grid <= 0 || block <= 0 {
		return Machine{}, fmt.Errorf("grid=%d block=%d must be positive", grid, block)
	}
	return Machine{
		Prog:        prog,
		global:      sem.NewPageCache(mem),
		params:      paramBlock(k, params),
		grid:        grid,
		block:       block,
		warpSize:    warpSize,
		nRegs:       k.NumRegs(),
		localBytes:  int(k.LocalBytes()),
		sharedLimit: k.SharedBytes(),
	}, nil
}

// paramBlock lays the parameter values out at their ptx.ParamOffset
// offsets, little-endian.
func paramBlock(k *ptx.Kernel, vals []uint64) []byte {
	size := int64(0)
	for _, p := range k.Params {
		off, _ := k.ParamOffset(p.Name)
		size = max(size, off+int64(p.Type.Bytes()))
	}
	out := make([]byte, size)
	for i, p := range k.Params {
		off, _ := k.ParamOffset(p.Name)
		for b := 0; b < p.Type.Bytes(); b++ {
			out[off+int64(b)] = byte(vals[i] >> (8 * b))
		}
	}
	return out
}

// Warps returns the number of warps in a block.
func (m *Machine) Warps() int { return (m.block + m.warpSize - 1) / m.warpSize }

// NewBlock allocates one block's storage: the kernel's declared shared
// segment followed by extraShared bytes of ballast, and the arenas behind
// every warp's registers and every thread's local frame.
func (m *Machine) NewBlock(extraShared int64) *Block { return m.ReuseBlock(nil, extraShared) }

// ReuseBlock is NewBlock over old's storage (old may be nil): each arena
// whose capacity fits is resliced, the others are allocated afresh. A
// reused arena keeps whatever its last launch left in it, so the caller
// clears the block (Block.Clear) before running it.
func (m *Machine) ReuseBlock(old *Block, extraShared int64) *Block {
	b := old
	if b == nil {
		b = new(Block)
	}
	b.shared = fit(b.shared, int(m.sharedLimit+extraShared))
	b.regs = fit(b.regs, m.Warps()*m.nRegs*32)
	b.locals = fit(b.locals, m.localBytes*m.block)
	b.frames = fit(b.frames, m.block)
	for t := range b.frames {
		b.frames[t] = b.locals[t*m.localBytes : (t+1)*m.localBytes : (t+1)*m.localBytes]
	}
	return b
}

// fit returns s resliced to length n when its capacity allows, else a new
// slice of length n.
func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Bind makes w warp i of block b: its register planes, its lanes' local
// frames and the block's shared buffer.
func (m *Machine) Bind(w *Warp, b *Block, i int) {
	n := m.nRegs * 32
	w.regs = b.regs[i*n : (i+1)*n : (i+1)*n]
	w.BaseTid = i * m.warpSize
	w.locals = b.frames[w.BaseTid:min(w.BaseTid+m.warpSize, m.block)]
	w.shared = b.shared
}

// Start rewinds w to pc 0 as a warp of block cta, every populated lane
// (one per local frame) active.
func (m *Machine) Start(w *Warp, cta int) {
	w.CTA = cta
	mask := uint64(1)<<uint(len(w.locals)) - 1
	w.Stack = append(w.Stack[:0], Entry{PC: 0, RPC: len(m.Prog.Ops), Mask: mask})
}

// Exec executes u, the instruction at w's stack top, for the lanes in mask
// (w.ExecMask(u), taken before anything else reads the warp) and moves the
// warp on. Memory instructions go lane by lane in ascending
// order, and the lowest offending lane faults after the lanes below it have
// taken effect. A faulted warp does not move on.
func (m *Machine) Exec(w *Warp, u *Op, mask uint64) Status {
	top := w.Top()
	switch u.Class {
	case ClassALU:
		if mask != 0 {
			u.Fn(w.Plane(u.Dst), m.srcPlane(w, &u.Src[0], 0, mask),
				m.srcPlane(w, &u.Src[1], 1, mask), m.srcPlane(w, &u.Src[2], 2, mask), mask)
		}
	case ClassMem:
		if mask != 0 && !m.memory(w, u, mask) {
			return Faulted
		}
	case ClassLdParam:
		if mask != 0 && !m.ldParam(w, u, mask) {
			return Faulted
		}
	case ClassBra:
		m.branch(w, u, top.Mask, mask)
		return Running
	case ClassExit:
		if w.Exit(top.Mask) {
			return Exited
		}
		return Running
	case ClassBad:
		if mask != 0 {
			m.Fault = Fault{Kind: FaultExec, Lane: bits.TrailingZeros64(mask), Err: u.Err}
			return Faulted
		}
	}
	top.PC++
	w.popReconverged()
	if u.Class == ClassBar {
		return AtBarrier
	}
	return Running
}

// branch implements SIMT divergence with immediate-post-dominator
// reconvergence: target and reconvergence pcs come pre-resolved in u.
func (m *Machine) branch(w *Warp, u *Op, active, taken uint64) {
	top := w.Top()
	switch taken {
	case active:
		top.PC = u.Target
	case 0:
		top.PC++
	default:
		rpc := u.Rpc
		if rpc < 0 {
			rpc = len(m.Prog.Ops)
		}
		// The current entry waits at the reconvergence point; push the
		// fallthrough, then the taken path, which runs first.
		fall := top.PC + 1
		top.PC = rpc
		w.Stack = append(w.Stack,
			Entry{PC: fall, RPC: rpc, Mask: active &^ taken},
			Entry{PC: u.Target, RPC: rpc, Mask: taken},
		)
	}
	w.popReconverged()
}

// srcPlane resolves one source slot to a 32-lane plane: registers and
// broadcast constants are already planes; special registers are
// materialized into the slot's scratch plane under the mask.
func (m *Machine) srcPlane(w *Warp, s *Src, slot int, mask uint64) *[32]uint64 {
	switch s.Kind {
	case SrcReg:
		return w.Plane(s.Reg)
	case SrcSpec:
		p := &m.spec[slot]
		for mk := mask; mk != 0; mk &= mk - 1 {
			l := bits.TrailingZeros64(mk)
			p[l] = uint64(m.special(w, l, s.Spec))
		}
		return p
	}
	return s.Bcast
}

// SrcLane resolves one source slot for a single lane (a store needs one
// value per lane, not a whole plane).
func (m *Machine) SrcLane(w *Warp, s *Src, lane int) uint64 {
	switch s.Kind {
	case SrcReg:
		return w.Plane(s.Reg)[lane]
	case SrcSpec:
		return uint64(m.special(w, lane, s.Spec))
	}
	return s.Bcast[0]
}

// special evaluates a special register for one lane. The launch is
// one-dimensional: the y and z extents are 1 and their indices 0.
func (m *Machine) special(w *Warp, lane int, sp ptx.Special) int {
	tid := w.BaseTid + lane
	switch sp {
	case ptx.SpecTidX:
		return tid
	case ptx.SpecNTidX:
		return m.block
	case ptx.SpecCtaIdX:
		return w.CTA
	case ptx.SpecNCtaIdX:
		return m.grid
	case ptx.SpecLaneId:
		return tid % m.warpSize
	case ptx.SpecWarpId:
		return tid / m.warpSize
	case ptx.SpecNTidY, ptx.SpecNTidZ, ptx.SpecNCtaIdY, ptx.SpecNCtaIdZ:
		return 1
	}
	return 0
}

// ldParam loads from the parameter block per lane. It reports false on a
// fault: a lane whose read does not fit in the block, which a register base
// reaches past any symbol's bounds.
func (m *Machine) ldParam(w *Warp, u *Op, mask uint64) bool {
	d := w.Plane(u.Dst)
	var base *[32]uint64
	if u.MemBase != ptx.NoReg {
		base = w.Plane(u.MemBase)
	}
	size, limit := int(u.Size), int64(len(m.params))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros64(mk)
		addr := u.MemOff
		if base != nil {
			addr += base[l]
		}
		if !inBounds(addr, size, limit) {
			m.Fault = Fault{Kind: FaultMemOOB, Lane: l, Space: ptx.SpaceParam, Addr: addr, Size: size, Limit: limit}
			return false
		}
		d[l] = sem.ReadLE(m.params[addr:], size)
	}
	return true
}

// inBounds checks addr+size against a non-negative byte limit without
// overflow on addr+size.
func inBounds(addr uint64, size int, limit int64) bool {
	return uint64(size) <= uint64(limit) && addr <= uint64(limit)-uint64(size)
}

// memory performs a load or store lane by lane in ascending lane order. A
// global access may not touch the null page; a local access must stay in
// the lane's frame and a shared one in the kernel's declared segment, not
// the ballast behind it. It reports false on a fault. The address comes
// pre-decoded: an optional base register plus a displacement with any
// symbol base already folded in.
func (m *Machine) memory(w *Warp, u *Op, mask uint64) bool {
	size := int(u.Size)
	var base, dst *[32]uint64
	if u.MemBase != ptx.NoReg {
		base = w.Plane(u.MemBase)
	}
	if u.Load {
		dst = w.Plane(u.Dst)
	}
	seg := w.shared[:m.sharedLimit]
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros64(mk)
		addr := u.MemOff
		if base != nil {
			addr += base[l]
		}
		switch u.Space {
		case ptx.SpaceGlobal:
			if addr < NullPageBytes {
				m.Fault = Fault{Kind: FaultNullGlobal, Lane: l, Space: u.Space, Addr: addr, Size: size, Limit: NullPageBytes}
				return false
			}
			if u.Load {
				dst[l] = m.global.Read(addr, size)
			} else {
				m.global.Write(addr, m.SrcLane(w, &u.Src[0], l), size)
			}
			continue
		case ptx.SpaceLocal:
			seg = w.locals[l]
		case ptx.SpaceShared:
		default:
			continue
		}
		if limit := int64(len(seg)); !inBounds(addr, size, limit) {
			m.Fault = Fault{Kind: FaultMemOOB, Lane: l, Space: u.Space, Addr: addr, Size: size, Limit: limit}
			return false
		}
		if u.Load {
			dst[l] = sem.ReadLE(seg[addr:], size)
		} else {
			sem.WriteLE(seg[addr:], m.SrcLane(w, &u.Src[0], l), size)
		}
	}
	return true
}
