// Package emu is a fast, timing-free functional PTX emulator. It executes a
// kernel launch warp-by-warp with the same SIMT reconvergence discipline
// (immediate post-dominator stacks from internal/cfg) as the cycle-level
// simulator, but with no caches, scoreboards, or scheduling — only
// architectural state. Both engines run the same lowered program from
// internal/vec, built once per kernel: a warp's registers are 32-lane
// planes and an ALU instruction is one vector-kernel call under the
// execution mask, while memory instructions go lane by lane in ascending
// order. The differential oracle (internal/oracle) runs kernel variants
// through it and compares final global memory, so correctness here is
// judged purely on execution order and the rewrites under test, never on
// timing.
package emu

import (
	"fmt"
	"math/bits"

	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/sem"
	"crat/internal/vec"
)

// Launch describes one functional kernel execution.
type Launch struct {
	Kernel *ptx.Kernel
	// Grid is the number of thread blocks; Block the threads per block.
	Grid, Block int
	// Params holds one raw value per kernel parameter (pointers as
	// addresses in the supplied Memory, scalars as their bit patterns).
	Params []uint64
	// MaxWarpInsts bounds total executed warp instructions before the
	// emulator declares a livelock (0 = DefaultMaxWarpInsts). A functional
	// emulator has no cycle clock, so a step budget is its watchdog.
	MaxWarpInsts int64
	// Provenance records Result.LastStore. It costs a map entry per stored
	// byte, so callers ask for it only to localize a divergence they have
	// already found; execution is deterministic, so a re-run with it on
	// reproduces the first run exactly.
	Provenance bool
}

// DefaultMaxWarpInsts is the default livelock budget. Seed workloads run in
// the tens of thousands of warp instructions; 64M leaves three orders of
// magnitude of headroom while still terminating a runaway loop quickly.
const DefaultMaxWarpInsts = 64 << 20

// FaultKind classifies functional-execution failures.
type FaultKind int

const (
	// FaultExec is a lane-level evaluation error (unsupported op/type).
	FaultExec FaultKind = iota
	// FaultMemOOB is a local/shared access outside the declared segment.
	FaultMemOOB
	// FaultNullGlobal is a global access inside the reserved null page.
	FaultNullGlobal
	// FaultLivelock means the warp-instruction budget was exhausted.
	FaultLivelock
)

func (k FaultKind) String() string {
	switch k {
	case FaultExec:
		return "exec"
	case FaultMemOOB:
		return "mem-oob"
	case FaultNullGlobal:
		return "null-global"
	case FaultLivelock:
		return "livelock"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is a structured functional-execution failure with the location of
// the offending lane.
type Fault struct {
	Kind                  FaultKind
	PC, Block, Warp, Lane int
	Space                 ptx.Space
	Addr                  uint64
	Size                  int
	Limit                 int64
	Detail                string
	Err                   error
}

func (f *Fault) Error() string {
	msg := fmt.Sprintf("emu: %v at pc=%d block=%d warp=%d lane=%d", f.Kind, f.PC, f.Block, f.Warp, f.Lane)
	if f.Kind == FaultMemOOB || f.Kind == FaultNullGlobal {
		msg += fmt.Sprintf(" %v addr=%#x size=%d limit=%d", f.Space, f.Addr, f.Size, f.Limit)
	}
	if f.Detail != "" {
		msg += ": " + f.Detail
	}
	if f.Err != nil {
		msg += ": " + f.Err.Error()
	}
	return msg
}

func (f *Fault) Unwrap() error { return f.Err }

// Store records the provenance of the last write to a global byte: which
// instruction, from where, wrote what. The oracle uses it to localize a
// memory divergence to the instruction that produced it.
type Store struct {
	PC, Block, Warp, Lane int
	Value                 uint64
	Size                  int
}

// Result summarizes a completed (or faulted) execution.
type Result struct {
	// ThreadInsts counts executed thread instructions (guarded-off lanes
	// excluded) — a cheap execution fingerprint.
	ThreadInsts int64
	// WarpInsts counts executed warp instructions.
	WarpInsts int64
	// LastStore maps each written global byte address to the provenance of
	// its final write. Nil unless Launch.Provenance was set.
	LastStore map[uint64]Store
}

// simtEntry mirrors the simulator's divergence stack entries.
type simtEntry struct {
	pc   int
	rpc  int
	mask uint64
}

// warpSize is the SIMT width: the lanes of one vec.Fn plane.
const warpSize = 32

// warp holds one warp's architectural state: regs is nRegs consecutive
// 32-lane planes (register r of lane l lives at regs[r*32+l]), the layout
// the vector kernels run over.
type warp struct {
	id      int
	regs    []uint64
	locals  [][]byte // per-lane local frame (zero-length when the kernel has none)
	stack   []simtEntry
	done    bool
	barrier bool
}

// plane returns register r's 32-lane plane.
func (w *warp) plane(r ptx.Reg) *[32]uint64 {
	return (*[32]uint64)(w.regs[int(r)*32:])
}

// machine is the per-launch execution state. Every block has the same
// shape, so the register, local and shared buffers are sized once per
// launch and cleared for each block.
type machine struct {
	launch     Launch
	kernel     *ptx.Kernel
	ops        []vec.Op // the shared lowered program
	global     sem.PageCache
	paramBlock []byte
	budget     int64

	blockID     int
	shared      []byte
	regArena    []uint64
	localArena  []byte
	warps       []*warp
	liveWarps   int
	arrived     int
	specScratch [3][32]uint64 // special-register source planes, one per slot

	res   Result
	fault *Fault
}

// nullPageBytes matches the simulator's reserved low global region:
// accesses under it indicate an uninitialized or corrupted pointer.
const nullPageBytes = 4096

// programs memoizes, per kernel version, the validated kernel's lowered
// program, or its validation error: an oracle runs each kernel several
// times, and validation, like lowering, depends on the kernel alone. An
// entry dies with its kernel.
var programs = passes.NewKernelMemo[*vec.Program]()

// validate is ptx.Kernel.Validate; tests count calls through it.
var validate = (*ptx.Kernel).Validate

func programFor(k *ptx.Kernel) (*vec.Program, error) {
	return programs.Do(k, func(k *ptx.Kernel) (*vec.Program, error) {
		if err := validate(k); err != nil {
			return nil, fmt.Errorf("emu: %w", err)
		}
		return vec.ProgramFor(k)
	})
}

// Run executes the launch to completion against mem. Global-memory effects
// are applied in place; the returned Result carries execution counters and,
// on request, last-store provenance. Failures surface as a *Fault.
func Run(l Launch, mem *sem.Memory) (*Result, error) {
	k := l.Kernel
	if k == nil {
		return nil, fmt.Errorf("emu: nil kernel")
	}
	prog, err := programFor(k)
	if err != nil {
		return nil, err
	}
	if len(l.Params) != len(k.Params) {
		return nil, fmt.Errorf("emu: %d param values for %d params", len(l.Params), len(k.Params))
	}
	if l.Grid <= 0 || l.Block <= 0 {
		return nil, fmt.Errorf("emu: grid=%d block=%d must be positive", l.Grid, l.Block)
	}
	budget := l.MaxWarpInsts
	if budget <= 0 {
		budget = DefaultMaxWarpInsts
	}
	m := &machine{
		launch:     l,
		kernel:     k,
		ops:        prog.Ops,
		global:     sem.NewPageCache(mem),
		paramBlock: buildParamBlock(k, l.Params),
		budget:     budget,
	}
	if l.Provenance {
		m.res.LastStore = make(map[uint64]Store)
	}
	m.allocBlock()

	// Blocks are independent (no inter-block synchronization in the model),
	// so they run sequentially and deterministically.
	for b := 0; b < l.Grid; b++ {
		m.runBlock(b)
		if m.fault != nil {
			return &m.res, m.fault
		}
	}
	return &m.res, nil
}

func buildParamBlock(k *ptx.Kernel, vals []uint64) []byte {
	size := int64(0)
	for _, p := range k.Params {
		off, _ := k.ParamOffset(p.Name)
		end := off + int64(p.Type.Bytes())
		if end > size {
			size = end
		}
	}
	out := make([]byte, size)
	for i, p := range k.Params {
		off, _ := k.ParamOffset(p.Name)
		v := vals[i]
		for b := 0; b < p.Type.Bytes(); b++ {
			out[off+int64(b)] = byte(v >> (8 * b))
		}
	}
	return out
}

// allocBlock sizes one block's warps, registers, local frames and shared
// segment.
func (m *machine) allocBlock() {
	nRegs := m.kernel.NumRegs()
	localSize := int(m.kernel.LocalBytes())
	nWarps := (m.launch.Block + warpSize - 1) / warpSize
	m.shared = make([]byte, m.kernel.SharedBytes())
	m.regArena = make([]uint64, nWarps*nRegs*32)
	m.localArena = make([]byte, localSize*m.launch.Block)
	for wi := 0; wi < nWarps; wi++ {
		w := &warp{id: wi, regs: m.regArena[wi*nRegs*32 : (wi+1)*nRegs*32 : (wi+1)*nRegs*32]}
		for tid := wi * warpSize; tid < min((wi+1)*warpSize, m.launch.Block); tid++ {
			w.locals = append(w.locals, m.localArena[tid*localSize:(tid+1)*localSize:(tid+1)*localSize])
		}
		m.warps = append(m.warps, w)
	}
}

// runBlock resets the block state and drives the block's warps
// round-robin. Each warp runs until it exits or parks at a barrier; the
// barrier releases once every live warp arrives, matching the simulator's
// per-warp arrival semantics (a divergent warp still arrives exactly once).
func (m *machine) runBlock(id int) {
	m.blockID = id
	clear(m.shared)
	clear(m.regArena)
	clear(m.localArena)
	for _, w := range m.warps {
		lanes := min(m.launch.Block-w.id*warpSize, warpSize)
		w.stack = append(w.stack[:0], simtEntry{pc: 0, rpc: len(m.kernel.Insts), mask: 1<<uint(lanes) - 1})
		w.done, w.barrier = false, false
	}
	m.liveWarps = len(m.warps)
	m.arrived = 0

	for m.liveWarps > 0 {
		progressed := false
		for _, w := range m.warps {
			if w.done || w.barrier {
				continue
			}
			m.runWarp(w)
			if m.fault != nil {
				return
			}
			progressed = true
		}
		if !progressed {
			// Every live warp is parked at a barrier that never released:
			// with per-warp arrival this is unreachable for a verified
			// kernel, so treat it as a livelock rather than spinning.
			m.fault = &Fault{
				Kind: FaultLivelock, PC: -1, Block: id, Warp: -1, Lane: -1,
				Detail: "all live warps parked at a barrier with no release",
			}
			return
		}
	}
}

// runWarp executes w until it exits, parks at a barrier, or faults.
func (m *machine) runWarp(w *warp) {
	for !w.done && !w.barrier {
		if m.res.WarpInsts >= m.budget {
			m.fault = &Fault{
				Kind: FaultLivelock, PC: m.pcOf(w), Block: m.blockID, Warp: w.id, Lane: -1,
				Detail: fmt.Sprintf("exceeded %d warp instructions", m.budget),
			}
			return
		}
		m.step(w)
		if m.fault != nil {
			return
		}
	}
}

func (m *machine) pcOf(w *warp) int {
	if len(w.stack) == 0 {
		return -1
	}
	return w.stack[len(w.stack)-1].pc
}

// step executes the warp's next instruction for all its executing lanes.
func (m *machine) step(w *warp) {
	top := &w.stack[len(w.stack)-1]
	if top.pc >= len(m.ops) {
		m.exitLanes(w, top.mask)
		return
	}
	pc := top.pc
	u := &m.ops[pc]

	// Effective execution mask: active lanes whose guard holds.
	execMask := top.mask
	if u.Guard != ptx.NoReg {
		g := w.plane(u.Guard)
		gm := uint64(0)
		for mk := execMask; mk != 0; mk &= mk - 1 {
			l := bits.TrailingZeros64(mk)
			if (g[l] != 0) != u.GuardNeg {
				gm |= 1 << uint(l)
			}
		}
		execMask = gm
	}

	m.res.WarpInsts++
	m.res.ThreadInsts += int64(bits.OnesCount64(execMask))

	switch u.Class {
	case passes.MicroBra:
		m.execBranch(w, u, top.mask, execMask)
		return
	case passes.MicroExit:
		m.exitLanes(w, top.mask)
		return
	case passes.MicroBar:
		top.pc++
		m.popReconverged(w)
		w.barrier = true
		m.arrived++
		m.releaseBarrier()
		return
	case passes.MicroNop:
		top.pc++
		m.popReconverged(w)
		return
	}

	if execMask != 0 {
		switch u.Class {
		case passes.MicroBad:
			// A statically-unsupported instruction carries its evaluation
			// error; the lowest executing lane raises it.
			m.fault = &Fault{Kind: FaultExec, PC: pc, Block: m.blockID, Warp: w.id,
				Lane: bits.TrailingZeros64(execMask), Err: u.Err}
			return
		case passes.MicroLdParam:
			m.execLdParam(w, u, execMask)
		case passes.MicroMem:
			if !m.execMemory(w, pc, u, execMask) {
				return // faulted
			}
		default: // passes.MicroALU
			u.Fn(w.plane(u.Dst), m.srcPlane(w, &u.Src[0], 0, execMask),
				m.srcPlane(w, &u.Src[1], 1, execMask), m.srcPlane(w, &u.Src[2], 2, execMask), execMask)
		}
	}

	top.pc++
	m.popReconverged(w)
}

// execBranch implements SIMT divergence with immediate-post-dominator
// reconvergence, identically to the simulator. Target and reconvergence pcs
// come pre-resolved in the lowered op.
func (m *machine) execBranch(w *warp, u *vec.Op, activeMask, takenMask uint64) {
	top := &w.stack[len(w.stack)-1]
	target := u.Target
	switch takenMask {
	case activeMask:
		top.pc = target
	case 0:
		top.pc++
	default:
		pc := top.pc
		rpc := u.Rpc
		if rpc < 0 {
			rpc = len(m.ops)
		}
		top.pc = rpc
		w.stack = append(w.stack,
			simtEntry{pc: pc + 1, rpc: rpc, mask: activeMask &^ takenMask},
			simtEntry{pc: target, rpc: rpc, mask: takenMask},
		)
	}
	m.popReconverged(w)
}

func (m *machine) popReconverged(w *warp) {
	for len(w.stack) > 1 {
		top := &w.stack[len(w.stack)-1]
		if top.pc == top.rpc || top.mask == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

func (m *machine) exitLanes(w *warp, mask uint64) {
	for i := range w.stack {
		w.stack[i].mask &^= mask
	}
	for len(w.stack) > 0 && w.stack[len(w.stack)-1].mask == 0 {
		w.stack = w.stack[:len(w.stack)-1]
	}
	if len(w.stack) == 0 {
		w.done = true
		m.liveWarps--
		m.releaseBarrier()
		return
	}
	m.popReconverged(w)
}

func (m *machine) releaseBarrier() {
	if m.liveWarps == 0 || m.arrived < m.liveWarps {
		return
	}
	for _, w := range m.warps {
		w.barrier = false
	}
	m.arrived = 0
}

// srcPlane resolves one source slot to a 32-lane plane: registers and
// broadcast constants are already planes; special registers are
// materialized into the slot's scratch plane under the mask.
func (m *machine) srcPlane(w *warp, s *vec.Src, slot int, mask uint64) *[32]uint64 {
	switch s.Kind {
	case vec.SrcReg:
		return w.plane(s.Reg)
	case vec.SrcSpec:
		p := &m.specScratch[slot]
		for mk := mask; mk != 0; mk &= mk - 1 {
			l := bits.TrailingZeros64(mk)
			p[l] = uint64(m.special(w, l, s.Spec))
		}
		return p
	}
	return s.Bcast
}

// srcLane resolves one source slot for a single lane (a store needs one
// value per lane, not a whole plane).
func (m *machine) srcLane(w *warp, s *vec.Src, lane int) uint64 {
	switch s.Kind {
	case vec.SrcReg:
		return w.plane(s.Reg)[lane]
	case vec.SrcSpec:
		return uint64(m.special(w, lane, s.Spec))
	}
	return s.Bcast[0]
}

func (m *machine) special(w *warp, lane int, sp ptx.Special) int {
	tid := w.id*warpSize + lane
	switch sp {
	case ptx.SpecTidX:
		return tid
	case ptx.SpecNTidX:
		return m.launch.Block
	case ptx.SpecCtaIdX:
		return m.blockID
	case ptx.SpecNCtaIdX:
		return m.launch.Grid
	case ptx.SpecLaneId:
		return tid % warpSize
	case ptx.SpecWarpId:
		return tid / warpSize
	case ptx.SpecTidY, ptx.SpecTidZ, ptx.SpecCtaIdY, ptx.SpecCtaIdZ:
		return 0
	case ptx.SpecNTidY, ptx.SpecNTidZ, ptx.SpecNCtaIdY, ptx.SpecNCtaIdZ:
		return 1
	}
	return 0
}

// execLdParam loads from the parameter block per lane. Reads past the
// block yield zero bytes.
func (m *machine) execLdParam(w *warp, u *vec.Op, execMask uint64) {
	d := w.plane(u.Dst)
	var base *[32]uint64
	if u.MemBase != ptx.NoReg {
		base = w.plane(u.MemBase)
	}
	for mk := execMask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros64(mk)
		addr := u.MemOff
		if base != nil {
			addr += base[l]
		}
		v := uint64(0)
		for b := 0; b < int(u.Size); b++ {
			if int(addr)+b < len(m.paramBlock) {
				v |= uint64(m.paramBlock[int(addr)+b]) << (8 * b)
			}
		}
		d[l] = v
	}
}

func inBounds(addr uint64, size int, limit int64) bool {
	return uint64(size) <= uint64(limit) && addr <= uint64(limit)-uint64(size)
}

// execMemory performs a load or store lane by lane in ascending lane order,
// with the same bounds rules as the simulator: null-page faults for global,
// declared-segment bounds for local and shared. The lowest offending lane
// faults, after the lanes below it have taken effect. The address comes
// pre-decoded: an optional base register plus a displacement with any
// symbol base already folded in. Returns false on a fault.
func (m *machine) execMemory(w *warp, pc int, u *vec.Op, execMask uint64) bool {
	size := int(u.Size)
	var base, dst *[32]uint64
	if u.MemBase != ptx.NoReg {
		base = w.plane(u.MemBase)
	}
	if u.Load {
		dst = w.plane(u.Dst)
	}
	for mk := execMask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros64(mk)
		addr := u.MemOff
		if base != nil {
			addr += base[l]
		}
		switch u.Space {
		case ptx.SpaceGlobal:
			if addr < nullPageBytes {
				m.memFault(FaultNullGlobal, w, pc, l, u.Space, addr, size, nullPageBytes)
				return false
			}
			if u.Load {
				dst[l] = m.global.Read(addr, size)
				continue
			}
			v := m.srcLane(w, &u.Src[0], l)
			m.global.Write(addr, v, size)
			if m.res.LastStore != nil {
				rec := Store{PC: pc, Block: m.blockID, Warp: w.id, Lane: l, Value: v, Size: size}
				for b := 0; b < size; b++ {
					m.res.LastStore[addr+uint64(b)] = rec
				}
			}
		case ptx.SpaceLocal:
			limit := int64(len(w.locals[l]))
			if !inBounds(addr, size, limit) {
				m.memFault(FaultMemOOB, w, pc, l, u.Space, addr, size, limit)
				return false
			}
			if u.Load {
				dst[l] = sem.ReadLE(w.locals[l][addr:], size)
			} else {
				sem.WriteLE(w.locals[l][addr:], m.srcLane(w, &u.Src[0], l), size)
			}
		case ptx.SpaceShared:
			limit := int64(len(m.shared))
			if !inBounds(addr, size, limit) {
				m.memFault(FaultMemOOB, w, pc, l, u.Space, addr, size, limit)
				return false
			}
			if u.Load {
				dst[l] = sem.ReadLE(m.shared[addr:], size)
			} else {
				sem.WriteLE(m.shared[addr:], m.srcLane(w, &u.Src[0], l), size)
			}
		}
	}
	return true
}

func (m *machine) memFault(kind FaultKind, w *warp, pc, lane int, space ptx.Space, addr uint64, size int, limit int64) {
	m.fault = &Fault{Kind: kind, PC: pc, Block: m.blockID, Warp: w.id, Lane: lane,
		Space: space, Addr: addr, Size: size, Limit: limit}
}
