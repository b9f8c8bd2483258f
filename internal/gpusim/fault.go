package gpusim

import (
	"fmt"
	"strings"

	"crat/internal/ptx"
)

// FaultKind classifies structured simulator faults.
type FaultKind uint8

// Fault taxonomy (see DESIGN.md "Fault model & verification").
const (
	// FaultExec: an instruction failed to execute (unsupported op/type
	// combination, malformed operand) on an active lane.
	FaultExec FaultKind = iota
	// FaultMemOOB: a local or shared access fell outside the declared
	// per-thread local frame or per-block shared segment.
	FaultMemOOB
	// FaultNullGlobal: a global access hit the reserved null page,
	// indicating an uninitialized or corrupted pointer.
	FaultNullGlobal
	// FaultBarrierDeadlock: every live warp is blocked at a barrier with no
	// arrivals possible, detected by the idle watchdog instead of spinning
	// to the cycle cap.
	FaultBarrierDeadlock
	// FaultWatchdogStall: no scheduler issued an instruction for a full
	// stall window (Config.StallWindow) — the machine is wedged.
	FaultWatchdogStall
	// FaultLivelock: the simulation passed Config.MaxCycles without
	// retiring the grid (warps still issuing, no forward progress).
	FaultLivelock
	// FaultTimeout: the caller's wall-clock deadline (context.Context
	// deadline) expired before the grid retired. Unlike FaultLivelock this
	// says nothing about the kernel — the budget ran out.
	FaultTimeout
	// FaultCanceled: the caller canceled the run (SIGINT drain, an
	// abandoned sweep). The partial statistics are still returned.
	FaultCanceled
)

func (k FaultKind) String() string {
	switch k {
	case FaultExec:
		return "exec-fault"
	case FaultMemOOB:
		return "mem-out-of-bounds"
	case FaultNullGlobal:
		return "null-global-access"
	case FaultBarrierDeadlock:
		return "barrier-deadlock"
	case FaultWatchdogStall:
		return "watchdog-stall"
	case FaultLivelock:
		return "livelock"
	case FaultTimeout:
		return "deadline-timeout"
	case FaultCanceled:
		return "canceled"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// WarpState is a per-warp snapshot attached to watchdog faults so
// cycle-cap and deadlock failures are diagnosable.
type WarpState struct {
	Warp       int
	Block      int
	PC         int
	Done       bool
	AtBarrier  bool
	Stall      string // stall reason name at the time of the fault
	StackDepth int    // SIMT reconvergence stack depth
}

func (ws WarpState) String() string {
	if ws.Done {
		return fmt.Sprintf("warp %d (block %d): done", ws.Warp, ws.Block)
	}
	bar := ""
	if ws.AtBarrier {
		bar = " at-barrier"
	}
	return fmt.Sprintf("warp %d (block %d): pc=%d stall=%s%s depth=%d",
		ws.Warp, ws.Block, ws.PC, ws.Stall, bar, ws.StackDepth)
}

// Fault is a structured simulator error: every execution-path failure that
// previously panicked (or spun silently to the cycle cap) surfaces as one
// of these, carrying enough context to attribute the failure to a kernel,
// instruction, warp, and cycle.
type Fault struct {
	Kind   FaultKind
	Kernel string
	PC     int    // instruction index at the fault (-1 when not applicable)
	Disasm string // formatted instruction at PC
	Warp   int    // faulting warp id (-1 when machine-wide)
	Block  int    // faulting block id (-1 when machine-wide)
	Lane   int    // faulting lane (-1 when not lane-specific)
	Cycle  int64

	// Memory-fault details (FaultMemOOB / FaultNullGlobal).
	Space ptx.Space
	Addr  uint64
	Size  int
	Limit int64

	// Err is the underlying execution error for FaultExec.
	Err error

	// Warps holds per-warp snapshots for watchdog faults
	// (FaultBarrierDeadlock, FaultWatchdogStall, FaultLivelock).
	Warps []WarpState

	// Detail carries kind-specific context (e.g. the cycle budget).
	Detail string
}

// maxWarpLines bounds how many per-warp snapshot lines Error() renders.
const maxWarpLines = 8

func (f *Fault) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "gpusim: %s: kernel %q", f.Kind, f.Kernel)
	if f.PC >= 0 {
		fmt.Fprintf(&sb, ": pc=%d", f.PC)
		if f.Disasm != "" {
			fmt.Fprintf(&sb, " (%s)", f.Disasm)
		}
	}
	if f.Warp >= 0 {
		fmt.Fprintf(&sb, " warp=%d", f.Warp)
	}
	if f.Block >= 0 {
		fmt.Fprintf(&sb, " block=%d", f.Block)
	}
	if f.Lane >= 0 {
		fmt.Fprintf(&sb, " lane=%d", f.Lane)
	}
	fmt.Fprintf(&sb, " cycle=%d", f.Cycle)
	switch f.Kind {
	case FaultMemOOB:
		fmt.Fprintf(&sb, ": %s access addr=0x%x size=%d outside [0,%d)",
			f.Space, f.Addr, f.Size, f.Limit)
	case FaultNullGlobal:
		fmt.Fprintf(&sb, ": global access addr=0x%x inside the null page", f.Addr)
	case FaultExec, FaultTimeout, FaultCanceled:
		fmt.Fprintf(&sb, ": %v", f.Err)
	}
	if f.Detail != "" {
		fmt.Fprintf(&sb, ": %s", f.Detail)
	}
	if len(f.Warps) > 0 {
		fmt.Fprintf(&sb, "\n  warp states:")
		for i, ws := range f.Warps {
			if i == maxWarpLines {
				fmt.Fprintf(&sb, "\n    ... and %d more warps", len(f.Warps)-maxWarpLines)
				break
			}
			fmt.Fprintf(&sb, "\n    %s", ws)
		}
	}
	return sb.String()
}

// Unwrap exposes the underlying execution error (errors.Is/As support).
func (f *Fault) Unwrap() error { return f.Err }

// setFault records the first fault observed by the simulator (first-wins:
// later faults are consequences of executing past the first one) and fills
// the common context fields.
func (s *Simulator) setFault(f *Fault) {
	if s.fault != nil {
		return
	}
	f.Kernel = s.kernel.Name
	f.Cycle = s.now
	if f.PC >= 0 && f.PC < len(s.kernel.Insts) && f.Disasm == "" {
		f.Disasm = ptx.FormatInst(s.kernel, f.PC)
	}
	s.fault = f
}

// warpStates snapshots every resident warp for watchdog diagnostics.
func (s *Simulator) warpStates() []WarpState {
	states := make([]WarpState, 0, len(s.warps))
	for _, w := range s.warps {
		ws := WarpState{
			Warp:       w.id,
			Block:      w.block.id,
			Done:       w.done,
			AtBarrier:  w.barrier,
			StackDepth: len(w.Stack),
		}
		if !w.done && len(w.Stack) > 0 {
			ws.PC = w.Top().PC
		}
		if _, reason := s.canIssue(w); true {
			ws.Stall = reason.String()
		}
		states = append(states, ws)
	}
	return states
}

// barrierDeadlocked reports whether every live resident warp is blocked at
// a barrier. With correct barrier accounting the last arrival always
// releases the others, so this state means the synchronization protocol is
// broken (e.g. a transformation dropped or duplicated a bar.sync) and the
// simulation can never progress.
func (s *Simulator) barrierDeadlocked() bool {
	live := 0
	for _, w := range s.warps {
		if w.done {
			continue
		}
		if !w.barrier {
			return false
		}
		live++
	}
	return live > 0
}
