package gpusim

import (
	"fmt"
	"math/bits"

	"crat/internal/ptx"
	"crat/internal/vec"
)

// execute issues the warp's next instruction: functional effects happen
// immediately (functional-first simulation) through the shared SIMT core
// (vec.Machine), destination registers become ready after the modeled
// latency. The instruction comes pre-decoded from the lowered program and
// applies to the whole warp as vector operations over 32-lane register
// planes.
func (s *Simulator) execute(w *warp) {
	w.sbValid = false // ready-times are about to change; drop the memo
	s.schedUntil[w.sched][w.schedIdx] = 0
	top := w.Top()
	if top.PC >= len(s.m.Prog.Ops) {
		if w.Exit(top.Mask) {
			s.warpExited(w)
		}
		return
	}
	pc := top.PC
	u := &s.m.Prog.Ops[pc]
	execMask := w.ExecMask(u)

	s.stats.WarpInsts++
	s.stats.ThreadInsts += int64(bits.OnesCount64(execMask))
	if u.Meta != ptx.MetaNone {
		s.countMeta(u, execMask)
	}
	if s.tracing {
		s.traceInst(w, pc, execMask)
	}
	var plan *memPlan
	if u.Class == vec.ClassMem {
		// Plan before the functional access, which may overwrite the
		// address base register.
		plan = s.planFor(w, pc, u)
		w.hasPlan = false // consumed; loops must not reuse stale addresses
	}

	switch s.m.Exec(&w.Warp, u, execMask) {
	case vec.Exited:
		s.warpExited(w)
		return
	case vec.AtBarrier:
		w.barrier = true
		// Park until release: releaseBarrier clears this (possibly within
		// this very call, when w is the last arriver).
		s.cacheStall(w, stallBarrier, farFuture)
		w.block.arrived++
		s.releaseBarrier(w.block)
		return
	case vec.Faulted:
		f := &s.m.Fault
		if u.Class == vec.ClassMem {
			s.countMem(u, f.Took(execMask))
		}
		// The shared kinds are the first three of FaultKind, in order.
		s.setFault(&Fault{
			Kind: FaultKind(f.Kind), PC: pc,
			Warp: w.id, Block: w.block.id, Lane: f.Lane,
			Space: f.Space, Addr: f.Addr, Size: f.Size, Limit: f.Limit,
			Err: f.Err,
		})
		return
	}
	latency, isMem := int64(s.cfg.ALULat), false
	switch {
	case u.Class == vec.ClassMem:
		s.countMem(u, execMask)
		latency, isMem = s.memTiming(u, plan)
	case u.SFU:
		latency = int64(s.cfg.SFULat)
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

// countMem counts the per-lane accesses of a memory instruction that took
// effect.
func (s *Simulator) countMem(u *vec.Op, lanes uint64) {
	n := int64(bits.OnesCount64(lanes))
	switch {
	case u.Space == ptx.SpaceGlobal && u.Load:
		s.stats.GlobalLoads += n
	case u.Space == ptx.SpaceGlobal:
		s.stats.GlobalStores += n
	case u.Space == ptx.SpaceLocal && u.Load:
		s.stats.LocalLoads += n
	case u.Space == ptx.SpaceLocal:
		s.stats.LocalStores += n
	case u.Space == ptx.SpaceShared && u.Load:
		s.stats.SharedLoads += n
	case u.Space == ptx.SpaceShared:
		s.stats.SharedStores += n
	}
}

// warpExited retires a warp whose every lane has exited.
func (s *Simulator) warpExited(w *warp) {
	w.done = true
	s.cacheStall(w, stallEmpty, farFuture) // never scanned again until re-enrolled
	s.liveSched[w.sched]--
	w.block.liveWarps--
	s.releaseBarrier(w.block)
	if w.block.liveWarps == 0 {
		s.retireBlock(w.block)
	}
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

// memTiming models a global/local/shared access whose functional effects
// already happened, returning the latency until the destination is ready
// and whether it counts as a memory dependence.
func (s *Simulator) memTiming(u *vec.Op, plan *memPlan) (int64, bool) {
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
