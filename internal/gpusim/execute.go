package gpusim

import (
	"fmt"
	"math/bits"

	"crat/internal/passes"
	"crat/internal/ptx"
	"crat/internal/sem"
	"crat/internal/vec"
)

// execute issues the warp's next instruction: functional effects happen
// immediately (functional-first simulation), destination registers become
// ready after the modeled latency. The instruction comes pre-decoded from
// the lowered program — no per-issue operand or opcode switches — and applies
// to the whole warp as vector operations over 32-lane register planes.
func (s *Simulator) execute(w *warp) {
	w.sbValid = false // ready-times are about to change; drop the memo
	s.schedUntil[w.sched][w.schedIdx] = 0
	top := &w.stack[len(w.stack)-1]
	if top.pc >= len(s.prog.Ops) {
		s.exitLanes(w, top.mask)
		return
	}
	pc := top.pc
	u := &s.prog.Ops[pc]

	// Effective execution mask: active lanes whose guard holds.
	execMask := top.mask
	if u.Guard != ptx.NoReg {
		g := w.plane(u.Guard)
		gm := uint64(0)
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if (g[l] != 0) != u.GuardNeg {
				gm |= 1 << uint(l)
			}
		}
		execMask = gm
	}

	s.stats.WarpInsts++
	s.stats.ThreadInsts += int64(bits.OnesCount64(execMask))
	if u.Meta != ptx.MetaNone {
		s.countMeta(u, execMask)
	}
	if s.tracing {
		s.traceInst(w, pc, execMask)
	}

	switch u.Class {
	case passes.MicroBra:
		s.execBranch(w, u, top.mask, execMask)
		return
	case passes.MicroExit:
		s.exitLanes(w, top.mask)
		return
	case passes.MicroBar:
		top.pc++
		s.popReconverged(w)
		w.barrier = true
		// Park until release: releaseBarrier clears this (possibly within
		// this very call, when w is the last arriver).
		s.cacheStall(w, stallBarrier, farFuture)
		w.block.arrived++
		s.releaseBarrier(w.block)
		return
	case passes.MicroNop:
		top.pc++
		s.popReconverged(w)
		return
	}

	latency := int64(s.cfg.ALULat)
	if u.SFU {
		latency = int64(s.cfg.SFULat)
	}
	isMem := false
	switch u.Class {
	case passes.MicroMem:
		latency, isMem = s.execMemory(w, pc, u, execMask)
	case passes.MicroLdParam:
		s.execLdParam(w, u, execMask)
	case passes.MicroBad:
		if execMask != 0 {
			s.setFault(&Fault{
				Kind: FaultExec, PC: pc,
				Warp: w.id, Block: w.block.id, Lane: bits.TrailingZeros64(execMask),
				Err: u.Err,
			})
		}
	default: // passes.MicroALU
		s.execVec(w, u, execMask)
	}

	// Scoreboard the destination (regReady packs ready<<1 | isMem).
	if u.Dst != ptx.NoReg {
		ready := s.now + latency
		if ready > w.regReady[u.Dst]>>1 {
			packed := ready << 1
			if isMem {
				packed |= 1
			}
			w.regReady[u.Dst] = packed
		}
	}

	top.pc++
	s.popReconverged(w)
}

// traceInst emits one trace line for an issued instruction. Kept out of
// execute so the tracing-off hot path carries only the s.tracing check —
// no formatting, no argument marshaling, no allocation.
//
//go:noinline
func (s *Simulator) traceInst(w *warp, pc int, execMask uint64) {
	fmt.Fprintf(s.launch.Trace, "%8d w%03d b%03d pc=%-4d mask=%08x %s\n",
		s.now, w.id, w.block.id, pc, execMask, ptx.FormatInst(s.kernel, pc))
}

// srcPlane resolves one pre-decoded source slot to a 32-lane plane:
// registers and broadcast constants are already planes; special registers
// are materialized into the per-slot scratch plane under the mask.
func (s *Simulator) srcPlane(w *warp, sr *vec.Src, slot int, mask uint64) *[32]uint64 {
	switch sr.Kind {
	case vec.SrcReg:
		return w.plane(sr.Reg)
	case vec.SrcSpec:
		p := &s.specScratch[slot]
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			p[l] = uint64(s.specialVal(w, l, sr.Spec))
		}
		return p
	}
	return sr.Bcast
}

// execVec applies an ALU-class micro-op to the whole warp.
func (s *Simulator) execVec(w *warp, u *vec.Op, execMask uint64) {
	if execMask == 0 {
		return
	}
	d := w.plane(u.Dst)
	a := s.srcPlane(w, &u.Src[0], 0, execMask)
	b := s.srcPlane(w, &u.Src[1], 1, execMask)
	c := s.srcPlane(w, &u.Src[2], 2, execMask)
	u.Fn(d, a, b, c, execMask)
}

// specialVal evaluates a special register for one lane.
func (s *Simulator) specialVal(w *warp, lane int, sp ptx.Special) int {
	tid := w.baseTid + lane
	switch sp {
	case ptx.SpecTidX:
		return tid
	case ptx.SpecNTidX:
		return s.launch.Block
	case ptx.SpecCtaIdX:
		return w.block.id
	case ptx.SpecNCtaIdX:
		return s.launch.Grid
	case ptx.SpecLaneId:
		return tid % s.cfg.WarpSize
	case ptx.SpecWarpId:
		return tid / s.cfg.WarpSize
	case ptx.SpecTidY, ptx.SpecTidZ, ptx.SpecCtaIdY, ptx.SpecCtaIdZ:
		return 0
	case ptx.SpecNTidY, ptx.SpecNTidZ, ptx.SpecNCtaIdY, ptx.SpecNCtaIdZ:
		return 1
	}
	return 0
}

// srcLane resolves a pre-decoded source slot for a single lane (the memory
// path needs at most one value per lane, not a whole plane).
func (s *Simulator) srcLane(w *warp, sr *vec.Src, lane int) uint64 {
	switch sr.Kind {
	case vec.SrcReg:
		return w.plane(sr.Reg)[lane]
	case vec.SrcSpec:
		return uint64(s.specialVal(w, lane, sr.Spec))
	}
	return sr.Bcast[0]
}

// countMeta updates dynamic spill-overhead statistics.
func (s *Simulator) countMeta(u *vec.Op, execMask uint64) {
	n := int64(bits.OnesCount64(execMask))
	switch u.Meta {
	case ptx.MetaSpillLoad, ptx.MetaSpillStore:
		if u.Space == ptx.SpaceShared {
			s.stats.SpillSharedOps += n
		} else {
			s.stats.SpillLocalOps += n
		}
	case ptx.MetaSpillAddr:
		s.stats.SpillAddrOps += n
	}
}

// execBranch implements SIMT divergence with immediate-post-dominator
// reconvergence.
func (s *Simulator) execBranch(w *warp, u *vec.Op, activeMask, takenMask uint64) {
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
			rpc = len(s.prog.Ops)
		}
		// Current entry waits at the reconvergence point; push the
		// fallthrough then the taken path (taken executes first).
		top.pc = rpc
		w.stack = append(w.stack,
			simtEntry{pc: pc + 1, rpc: rpc, mask: activeMask &^ takenMask},
			simtEntry{pc: target, rpc: rpc, mask: takenMask},
		)
	}
	s.popReconverged(w)
}

// popReconverged pops stack entries that reached their reconvergence point.
func (s *Simulator) popReconverged(w *warp) {
	for len(w.stack) > 1 {
		top := &w.stack[len(w.stack)-1]
		if top.pc == top.rpc || top.mask == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

// exitLanes terminates the given lanes across the whole SIMT stack.
func (s *Simulator) exitLanes(w *warp, mask uint64) {
	for i := range w.stack {
		w.stack[i].mask &^= mask
	}
	for len(w.stack) > 0 && w.stack[len(w.stack)-1].mask == 0 {
		w.stack = w.stack[:len(w.stack)-1]
	}
	if len(w.stack) == 0 {
		w.done = true
		s.cacheStall(w, stallEmpty, farFuture) // never scanned again until re-enrolled
		s.liveSched[w.sched]--
		w.block.liveWarps--
		s.releaseBarrier(w.block)
		if w.block.liveWarps == 0 {
			s.retireBlock(w.block)
		}
		return
	}
	s.popReconverged(w)
}

// releaseBarrier resumes a block's warps once every live warp arrived.
func (s *Simulator) releaseBarrier(bc *blockCtx) {
	if bc.liveWarps == 0 || bc.arrived < bc.liveWarps {
		return
	}
	for _, w := range bc.warps {
		w.barrier = false
		if !w.done {
			s.schedUntil[w.sched][w.schedIdx] = 0
		}
	}
	bc.arrived = 0
}

// execLdParam performs a constant-bank (param block) load per lane. Reads
// past the parameter block yield zero bytes, as the old per-lane path did.
func (s *Simulator) execLdParam(w *warp, u *vec.Op, execMask uint64) {
	if execMask == 0 {
		return
	}
	d := w.plane(u.Dst)
	var base *[32]uint64
	if u.MemBase != ptx.NoReg {
		base = w.plane(u.MemBase)
	}
	size := int(u.Size)
	for m := execMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		addr := u.MemOff
		if base != nil {
			addr += base[l]
		}
		v := uint64(0)
		for b := 0; b < size; b++ {
			if int(addr)+b < len(s.paramBlock) {
				v |= uint64(s.paramBlock[int(addr)+b]) << (8 * b)
			}
		}
		d[l] = v
	}
}

// nullPageBytes is the reserved low region of the global address space:
// accesses under it indicate an uninitialized or corrupted pointer
// (Memory.Alloc never hands out addresses this low).
const nullPageBytes = 4096

// memFault records an out-of-bounds (or null-page) access as a structured
// fault carrying the full location context.
func (s *Simulator) memFault(kind FaultKind, w *warp, pc, lane int, space ptx.Space, addr uint64, size int, limit int64) {
	s.setFault(&Fault{
		Kind: kind, PC: pc,
		Warp: w.id, Block: w.block.id, Lane: lane,
		Space: space, Addr: addr, Size: size, Limit: limit,
	})
}

// inBounds checks addr+size against a non-negative byte limit without
// overflow on addr+size.
func inBounds(addr uint64, size int, limit int64) bool {
	return uint64(size) <= uint64(limit) && addr <= uint64(limit)-uint64(size)
}

// execMemory performs a global/local/shared load or store: functional
// effects now, returning the latency until the destination is ready and
// whether it counts as a memory dependence. Accesses outside the declared
// local frame or shared segment (and global accesses inside the null page)
// raise a structured fault instead of silently growing the backing store.
func (s *Simulator) execMemory(w *warp, pc int, u *vec.Op, execMask uint64) (int64, bool) {
	plan := s.planFor(w, pc, u)
	w.hasPlan = false // consumed; loops must not reuse stale addresses

	// Functional access per lane.
	size := int(u.Size)
	var base *[32]uint64
	if u.MemBase != ptx.NoReg {
		base = w.plane(u.MemBase)
	}
	var dst *[32]uint64
	if u.Load {
		dst = w.plane(u.Dst)
	}
	for m := execMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		addr := u.MemOff
		if base != nil {
			addr += base[l]
		}
		switch u.Space {
		case ptx.SpaceGlobal:
			if addr < nullPageBytes {
				s.memFault(FaultNullGlobal, w, pc, l, u.Space, addr, size, nullPageBytes)
				return int64(s.cfg.ALULat), false
			}
			if u.Load {
				dst[l] = s.global.Read(addr, size)
				s.stats.GlobalLoads++
			} else {
				s.global.Write(addr, s.srcLane(w, &u.Src[0], l), size)
				s.stats.GlobalStores++
			}
		case ptx.SpaceLocal:
			limit := int64(len(w.locals[l]))
			if !inBounds(addr, size, limit) {
				s.memFault(FaultMemOOB, w, pc, l, u.Space, addr, size, limit)
				return int64(s.cfg.ALULat), false
			}
			if u.Load {
				dst[l] = sem.ReadLE(w.locals[l][addr:], size)
				s.stats.LocalLoads++
			} else {
				sem.WriteLE(w.locals[l][addr:], s.srcLane(w, &u.Src[0], l), size)
				s.stats.LocalStores++
			}
		case ptx.SpaceShared:
			// The addressable segment is what the kernel declares; the
			// occupancy ballast (Launch.ExtraSharedBytes) reserves space
			// but is never a legal target.
			limit := s.kernel.SharedBytes()
			if !inBounds(addr, size, limit) {
				s.memFault(FaultMemOOB, w, pc, l, u.Space, addr, size, limit)
				return int64(s.cfg.ALULat), false
			}
			if u.Load {
				dst[l] = sem.ReadLE(w.block.shared[addr:], size)
				s.stats.SharedLoads++
			} else {
				sem.WriteLE(w.block.shared[addr:], s.srcLane(w, &u.Src[0], l), size)
				s.stats.SharedStores++
			}
		}
	}

	// Timing.
	switch u.Space {
	case ptx.SpaceShared:
		extra := int64(plan.conflicts - 1)
		s.stats.BankConflictCycles += extra
		s.memPipeFree = s.now + 1 + extra
		return int64(s.cfg.SharedLat) + 2*extra, false
	case ptx.SpaceGlobal:
		if !u.Load {
			// Write-through, no-allocate: consume bandwidth, evict from L1.
			for _, line := range plan.lines {
				s.l1.evict(line)
			}
			s.chargeDRAM(plan.bytes)
			s.memPipeFree = s.now + int64(len(plan.lines))
			return int64(s.cfg.ALULat), false
		}
		if u.Bypass {
			// ld.global.cg: skip the L1, fetch straight from L2/DRAM.
			worst := int64(s.cfg.L2Lat)
			for _, line := range plan.lines {
				done := s.fillFromL2(line)
				if d := done - s.now; d > worst {
					worst = d
				}
			}
			s.memPipeFree = s.now + int64(len(plan.lines))
			s.stats.BypassLoads += int64(len(plan.lines))
			return worst, true
		}
		return s.accessCached(plan), true
	case ptx.SpaceLocal:
		// Local loads and stores both allocate in L1 (write-back).
		lat := s.accessCached(plan)
		if !u.Load {
			return int64(s.cfg.ALULat), false
		}
		return lat, true
	}
	return int64(s.cfg.ALULat), false
}

// accessCached sends the plan's lines through L1 -> L2 -> DRAM and returns
// the cycles until the last fill (relative to now).
func (s *Simulator) accessCached(plan *memPlan) int64 {
	worst := int64(s.cfg.L1HitLat)
	for _, line := range plan.lines {
		s.stats.L1Accesses++
		hit, pending := s.l1.probe(line)
		if hit {
			s.l1.access(line, s.now, 0)
			s.stats.L1Hits++
			continue
		}
		s.stats.L1Misses++
		var ready int64
		if pending {
			// Merge with the in-flight fill: no new MSHR, no new traffic.
			_, ready = s.l1.access(line, s.now, 0)
		} else {
			fillDone := s.fillFromL2(line)
			_, ready = s.l1.access(line, s.now, fillDone)
		}
		if d := ready - s.now + int64(s.cfg.L1HitLat); d > worst {
			worst = d
		}
	}
	s.memPipeFree = s.now + int64(len(plan.lines))
	return worst
}

// fillFromL2 models an L1 miss: L2 lookup, then DRAM with bandwidth
// queueing. Returns the absolute completion cycle.
func (s *Simulator) fillFromL2(line uint64) int64 {
	s.stats.L2Accesses++
	if hit, _ := s.l2.probe(line); hit {
		s.l2.access(line, s.now, 0)
		s.stats.L2Hits++
		return s.now + int64(s.cfg.L2Lat)
	}
	// DRAM: latency plus serialized transfer of one line.
	transfer := int64(float64(s.cfg.L1.LineBytes) / s.cfg.DRAMBytesPerCycle)
	if transfer < 1 {
		transfer = 1
	}
	start := s.now + int64(s.cfg.L2Lat) + int64(s.cfg.DRAMLat)
	if s.dramFree > start {
		start = s.dramFree
	}
	done := start + transfer
	s.dramFree = done
	s.stats.DRAMBytes += int64(s.cfg.L1.LineBytes)
	s.l2.insert(line, s.now)
	return done
}

// chargeDRAM consumes write bandwidth.
func (s *Simulator) chargeDRAM(bytes int64) {
	transfer := int64(float64(bytes) / s.cfg.DRAMBytesPerCycle)
	if transfer < 1 {
		transfer = 1
	}
	if s.dramFree < s.now {
		s.dramFree = s.now
	}
	s.dramFree += transfer
	s.stats.DRAMBytes += bytes
}
