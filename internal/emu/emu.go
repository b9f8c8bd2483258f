// Package emu is a fast, timing-free functional PTX emulator. It runs a
// kernel launch block by block, each warp until it exits or parks at a
// barrier, with no caches, scoreboards, or scheduling — only architectural
// state. Each launch is checked and each instruction executes through the
// functional core it shares with the cycle-level simulator (internal/vec):
// the same launch contract, the same per-kernel lowered program, SIMT
// reconvergence (immediate post-dominator stacks from internal/cfg),
// guard masks, special registers, ld.param and memory bounds rules. The
// emulator keeps its run loop, barriers, livelock budget, store provenance
// and Fault type. The differential oracle (internal/oracle) runs kernel
// variants through it and compares final global memory, so correctness
// here is judged purely on execution order and the rewrites under test,
// never on timing.
package emu

import (
	"fmt"
	"math/bits"
	"sync"

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

// warp is one warp: its functional state (vec.Warp) plus the run loop's
// flags.
type warp struct {
	vec.Warp
	id      int
	done    bool
	barrier bool
}

// blockPool holds block storage between launches (*vec.Block).
var blockPool sync.Pool

// machine is the per-launch execution state. Every block has the same
// shape, so one block's storage serves the whole launch and is cleared for
// each block.
type machine struct {
	core      vec.Machine // the functional state shared with the simulator
	block     *vec.Block
	warps     []*warp
	liveWarps int
	arrived   int
	budget    int64

	res   Result
	fault *Fault
}

// Run executes the launch to completion against mem. Global-memory effects
// are applied in place; the returned Result carries execution counters and,
// on request, last-store provenance. Failures surface as a *Fault.
func Run(l Launch, mem *sem.Memory) (*Result, error) {
	core, err := vec.NewMachine(l.Kernel, mem, l.Params, l.Grid, l.Block, 32) // a warp is one full plane
	if err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	budget := l.MaxWarpInsts
	if budget <= 0 {
		budget = DefaultMaxWarpInsts
	}
	m := &machine{
		core:   core,
		budget: budget,
	}
	if l.Provenance {
		m.res.LastStore = make(map[uint64]Store)
	}
	// Every oracle check runs several launches of the same shape, so block
	// storage comes from a pool; runBlock clears it before each block.
	old, _ := blockPool.Get().(*vec.Block)
	m.block = m.core.ReuseBlock(old, 0)
	defer blockPool.Put(m.block)
	for i := 0; i < m.core.Warps(); i++ {
		w := &warp{id: i}
		m.core.Bind(&w.Warp, m.block, i)
		m.warps = append(m.warps, w)
	}

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

// runBlock resets the block state and drives the block's warps
// round-robin. Each warp runs until it exits or parks at a barrier; the
// barrier releases once every live warp arrives, matching the simulator's
// per-warp arrival semantics (a divergent warp still arrives exactly once).
func (m *machine) runBlock(id int) {
	m.block.Clear()
	for _, w := range m.warps {
		m.core.Start(&w.Warp, id)
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
				Kind: FaultLivelock, PC: w.Top().PC, Block: w.CTA, Warp: w.id, Lane: -1,
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

// step executes the warp's next instruction for all its executing lanes.
func (m *machine) step(w *warp) {
	top := w.Top()
	if top.PC >= len(m.core.Prog.Ops) {
		if w.Exit(top.Mask) {
			m.exited(w)
		}
		return
	}
	pc := top.PC
	u := &m.core.Prog.Ops[pc]
	mask := w.ExecMask(u)
	m.res.WarpInsts++
	m.res.ThreadInsts += int64(bits.OnesCount64(mask))

	st := m.core.Exec(&w.Warp, u, mask)
	f := &m.core.Fault
	if m.res.LastStore != nil && u.Class == vec.ClassMem && !u.Load && u.Space == ptx.SpaceGlobal {
		if st == vec.Faulted {
			mask = f.Took(mask)
		}
		m.record(w, u, pc, mask)
	}
	switch st {
	case vec.Exited:
		m.exited(w)
	case vec.AtBarrier:
		w.barrier = true
		m.arrived++
		m.releaseBarrier()
	case vec.Faulted:
		// The shared kinds are the first three of FaultKind, in order.
		m.fault = &Fault{Kind: FaultKind(f.Kind), PC: pc, Block: w.CTA, Warp: w.id, Lane: f.Lane,
			Space: f.Space, Addr: f.Addr, Size: f.Size, Limit: f.Limit, Err: f.Err}
	}
}

// record notes the provenance of a global store's lanes, in ascending lane
// order so the last writer of a byte wins. A store writes no register, so
// its address and value planes still hold what it stored.
func (m *machine) record(w *warp, u *vec.Op, pc int, lanes uint64) {
	size := int(u.Size)
	for mk := lanes; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros64(mk)
		addr := u.MemOff
		if u.MemBase != ptx.NoReg {
			addr += w.Plane(u.MemBase)[l]
		}
		rec := Store{PC: pc, Block: w.CTA, Warp: w.id, Lane: l, Value: m.core.SrcLane(&w.Warp, &u.Src[0], l), Size: size}
		for b := 0; b < size; b++ {
			m.res.LastStore[addr+uint64(b)] = rec
		}
	}
}

// exited retires a warp whose every lane has exited.
func (m *machine) exited(w *warp) {
	w.done = true
	m.liveWarps--
	m.releaseBarrier()
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
