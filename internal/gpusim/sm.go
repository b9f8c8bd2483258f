package gpusim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"crat/internal/ptx"
	"crat/internal/vec"
)

// localBase is the synthetic physical-address region of thread-local
// (spill) memory, interleaved by thread so same-offset accesses from a warp
// coalesce — mirroring how hardware lays out local memory.
const localBase = uint64(1) << 40

// Launch describes one kernel launch on the simulated SM.
type Launch struct {
	Kernel *ptx.Kernel
	// Grid is the number of thread blocks; Block the threads per block.
	Grid, Block int
	// Params holds one raw value per kernel parameter (pointers as
	// addresses in the supplied Memory, scalars as their bit patterns).
	Params []uint64
	// TLPLimit throttles the number of concurrently resident blocks
	// (0 = hardware maximum): the thread-throttling knob.
	TLPLimit int
	// RegsPerThread overrides the per-thread register usage used for
	// occupancy (0 = derive from the kernel's declared registers).
	RegsPerThread int
	// ExtraSharedBytes adds per-block shared memory beyond the kernel's
	// declarations (the "dummy array" TLP-throttling trick of paper §1).
	ExtraSharedBytes int64
	// Trace, when non-nil, receives one line per issued warp instruction
	// (cycle, warp, block, pc, disassembly) — a debugging aid.
	Trace io.Writer
}

// derivedRegs counts 32-bit register slots declared by the kernel.
func (l Launch) derivedRegs() int {
	if l.RegsPerThread > 0 {
		return l.RegsPerThread
	}
	n32, n64, _ := l.Kernel.RegCounts()
	return n32 + 2*n64
}

type stallReason uint8

const (
	stallNone stallReason = iota
	stallCongestion
	stallMemData
	stallALU
	stallBarrier
	stallEmpty
)

func (r stallReason) String() string {
	switch r {
	case stallNone:
		return "ready"
	case stallCongestion:
		return "mem-congestion"
	case stallMemData:
		return "mem-data"
	case stallALU:
		return "alu-data"
	case stallBarrier:
		return "barrier"
	case stallEmpty:
		return "empty"
	}
	return fmt.Sprintf("stall(%d)", uint8(r))
}

type blockCtx struct {
	id        int
	slot      int
	warps     []*warp
	liveWarps int
	arrived   int

	// storage backs every warp's register planes, lane local frames and
	// the shared segment; a retired block's storage is cleared and reused by
	// the next launch.
	storage *vec.Block
}

type memPlan struct {
	pc        int
	lines     []uint64 // unique L1 line addresses (global/local)
	words     []uint64 // unique shared-memory words (bank-conflict model)
	conflicts int      // shared-memory bank serialization degree
	bytes     int64
}

// seenSet de-duplicates one memPlan's line addresses or shared-memory
// words. It is open-addressed, and a slot counts as occupied only while it
// carries the current generation, so reset is one increment. A plan inserts
// at most 32 lanes × 2 words, a quarter of the slots.
type seenSet struct {
	gen  uint32
	keys [256]uint64
	gens [256]uint32
}

// reset empties the set.
func (s *seenSet) reset() {
	s.gen++
	if s.gen == 0 {
		// Wrapped: a stale stamp would read as occupied.
		clear(s.gens[:])
		s.gen = 1
	}
}

// add inserts key and reports whether it was absent.
func (s *seenSet) add(key uint64) bool {
	for i := (key * 0x9e3779b97f4a7c15) >> 56; ; i = (i + 1) & 255 {
		if s.gens[i] != s.gen {
			s.gens[i], s.keys[i] = s.gen, key
			return true
		}
		if s.keys[i] == key {
			return false
		}
	}
}

// warp is one warp: its functional state in structure-of-arrays form
// (vec.Warp: one contiguous 32-lane plane per register, so one vector op
// touches one plane per operand instead of chasing 32 thread pointers) plus
// the simulator's scheduling and scoreboard state.
type warp struct {
	vec.Warp
	id       int
	sched    int
	schedIdx int // position in schedWarps[sched] (and the stall-cache arrays)
	block    *blockCtx
	done     bool
	barrier  bool

	// regReady[r] packs the register's ready cycle and its producer class
	// into one word — ready<<1 | isMem — so the scoreboard scan touches one
	// cache line stream instead of two parallel arrays.
	regReady []int64

	// Scoreboard memo: regReady only changes when this warp executes, so
	// the per-cycle hazard scan over uses/defs is computed once per (issue
	// attempt after an execute) and replayed as three compares.
	// execute() invalidates it on entry.
	sbValid    bool
	sbDefIsMem bool
	sbALU      int64 // latest ready time over non-memory blocked uses
	sbMem      int64 // latest ready time over memory-blocked uses
	sbDef      int64 // ready time of the written register

	plan    memPlan
	hasPlan bool
}

// Simulator executes one kernel launch on one SM.
type Simulator struct {
	cfg    Config
	launch Launch
	kernel *ptx.Kernel

	m       vec.Machine // the functional state: program, memory, SIMT rules
	uses    [][]ptx.Reg // m.Prog.Uses: per-pc registers read, for the scoreboard
	defs    []ptx.Reg   // m.Prog.Defs: per-pc register written (ptx.NoReg = none)
	tracing bool        // launch.Trace != nil, pre-checked for the hot path

	now         int64
	l1          *cache
	l2          *cache
	dramFree    int64
	memPipeFree int64

	blocks     []*blockCtx
	blockPool  []*blockCtx // retired block contexts reusable by launchBlock
	freeSlots  []int       // residency slots not currently occupied
	nextBlock  int
	warps      []*warp
	schedWarps [][]*warp // per-scheduler warp lists (launch order)
	liveSched  []int     // per-scheduler count of not-done warps

	// Per-scheduler stall cache, parallel to schedWarps: while
	// now < schedUntil[sched][i], warp i cannot issue and schedReason holds
	// why. The issue scan walks these flat arrays and only dereferences a
	// warp (and runs the full hazard check) when its cached stall expired.
	// Data stalls expire at a known time; barrier parks and warp exits are
	// cached as "never" and cleared by releaseBarrier/re-enrollment;
	// structural stalls are never cached. execute() resets its warp's entry.
	schedUntil  [][]int64
	schedReason [][]stallReason
	lastStall   []stallReason // per-scheduler reason counted on the last no-issue cycle
	idle        int64         // consecutive no-issue cycles (skipped cycles included)
	warpSeq     int
	current     []*warp // per-scheduler greedy warp (GTO), nil when none
	lrrNext     []int   // per-scheduler round-robin cursor

	// seen de-duplicates the accesses of the memPlan being built.
	seen seenSet

	maxConc int
	stats   Stats

	// fault records the first structured execution fault; Run stops and
	// returns it instead of executing past corrupted state.
	fault *Fault
}

// NewSimulator prepares a launch. The launch must pass vec.NewMachine's
// checks: a kernel that validates, one value per kernel parameter, a
// positive grid and block.
func NewSimulator(cfg Config, mem *Memory, launch Launch) (*Simulator, error) {
	k := launch.Kernel
	m, err := vec.NewMachine(k, mem, launch.Params, launch.Grid, launch.Block, cfg.WarpSize)
	if err != nil {
		return nil, fmt.Errorf("gpusim: %w", err)
	}
	if cfg.WarpSize <= 0 || cfg.WarpSize > 32 {
		return nil, fmt.Errorf("gpusim: warp size %d unsupported (register planes are 32 lanes)", cfg.WarpSize)
	}

	shm := k.SharedBytes() + launch.ExtraSharedBytes
	regs := launch.derivedRegs()
	conc := cfg.Occupancy(regs, shm, launch.Block)
	if conc == 0 {
		return nil, fmt.Errorf("gpusim: launch does not fit on SM (regs=%d shm=%d block=%d)", regs, shm, launch.Block)
	}
	if launch.TLPLimit > 0 && launch.TLPLimit < conc {
		conc = launch.TLPLimit
	}

	s := &Simulator{
		cfg:         cfg,
		m:           m,
		uses:        m.Prog.Uses,
		defs:        m.Prog.Defs,
		launch:      launch,
		kernel:      k,
		tracing:     launch.Trace != nil,
		l1:          newCache(cfg.L1),
		l2:          newCache(cfg.L2),
		maxConc:     conc,
		current:     make([]*warp, cfg.NumSchedulers),
		lrrNext:     make([]int, cfg.NumSchedulers),
		schedWarps:  make([][]*warp, cfg.NumSchedulers),
		liveSched:   make([]int, cfg.NumSchedulers),
		schedUntil:  make([][]int64, cfg.NumSchedulers),
		schedReason: make([][]stallReason, cfg.NumSchedulers),
		lastStall:   make([]stallReason, cfg.NumSchedulers),
	}
	s.freeSlots = make([]int, 0, conc)
	for i := conc - 1; i >= 0; i-- {
		s.freeSlots = append(s.freeSlots, i)
	}
	s.stats.RegsPerThread = regs
	s.stats.SharedPerBlock = shm
	s.stats.ConcurrentBlocks = conc
	if launch.Grid < conc {
		s.stats.ConcurrentBlocks = launch.Grid
	}
	return s, nil
}

// cancelStride is how many loop iterations the simulator runs between
// context checks: coarse enough that ctx.Err() never shows up in profiles,
// fine enough (~microseconds of wall time) that cancellation and deadlines
// feel immediate. Iterations, not cycles: the clock fast-forward makes a
// cycle-modulo test unreliable (a jump can leap over every multiple).
const cancelStride = 4096

// Run simulates until every block of the grid has completed and returns the
// collected statistics. Execution failures — exec faults, out-of-bounds
// accesses, barrier deadlocks, stalls, livelock — surface as a *Fault.
func (s *Simulator) Run() (Stats, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run under a context: the cycle loop polls ctx every
// cancelStride cycles and aborts with a structured FaultTimeout
// (deadline expired) or FaultCanceled (caller canceled) carrying the usual
// per-warp snapshots, instead of spinning on to MaxCycles. The statistics
// accumulated up to the abort are returned alongside the fault.
func (s *Simulator) RunCtx(ctx context.Context) (Stats, error) {
	for s.nextBlock < s.launch.Grid && len(s.blocks) < s.maxConc {
		s.launchBlock()
	}
	maxCycles := s.cfg.maxCycles()
	stallWindow := s.cfg.stallWindow()
	s.idle = 0
	poll := 0
	for s.stats.BlocksCompleted < int64(s.launch.Grid) {
		if s.fault != nil {
			break
		}
		if poll--; poll <= 0 {
			poll = cancelStride
			if err := ctx.Err(); err != nil {
				kind := FaultCanceled
				if errors.Is(err, context.DeadlineExceeded) {
					kind = FaultTimeout
				}
				s.setFault(&Fault{
					Kind: kind, PC: -1, Warp: -1, Block: -1, Lane: -1,
					Err:   err,
					Warps: s.warpStates(),
				})
				break
			}
		}
		if s.now >= maxCycles {
			s.setFault(&Fault{
				Kind: FaultLivelock, PC: -1, Warp: -1, Block: -1, Lane: -1,
				Detail: fmt.Sprintf("exceeded %d cycles without retiring the grid", maxCycles),
				Warps:  s.warpStates(),
			})
			break
		}
		if !s.step() {
			// An idle machine cannot un-wedge itself without an external
			// event, and the only external events are L1/MSHR expiries
			// bounded by the DRAM latency. Probe the barrier state early
			// (deadlocked warps never wake), and give anything else a full
			// stall window before declaring the machine wedged. step()
			// maintains s.idle, counting fast-forwarded cycles too; jumps
			// never happen in barrier-deadlock states (no cached expiry), so
			// the modulo probe still runs while one is possible.
			if s.idle%64 == 0 && s.barrierDeadlocked() {
				s.setFault(&Fault{
					Kind: FaultBarrierDeadlock, PC: -1, Warp: -1, Block: -1, Lane: -1,
					Detail: "all live warps blocked at a barrier with no arrivals possible",
					Warps:  s.warpStates(),
				})
				break
			}
			if s.idle >= stallWindow {
				s.setFault(&Fault{
					Kind: FaultWatchdogStall, PC: -1, Warp: -1, Block: -1, Lane: -1,
					Detail: fmt.Sprintf("no instruction issued for %d cycles", s.idle),
					Warps:  s.warpStates(),
				})
				break
			}
		}
	}
	s.stats.Cycles = s.now
	s.stats.L1DistinctLines = int64(len(s.l1.seen))
	if s.fault != nil {
		return s.stats, s.fault
	}
	return s.stats, nil
}

// launchBlock makes the next grid block resident, reusing a retired block
// context (warps and their backing arenas) when one is available:
// steady-state execution of a large grid then allocates nothing per block.
func (s *Simulator) launchBlock() {
	id := s.nextBlock
	s.nextBlock++
	slot := -1
	if n := len(s.freeSlots); n > 0 {
		slot = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	}

	if n := len(s.blockPool); n > 0 {
		bc := s.blockPool[n-1]
		s.blockPool = s.blockPool[:n-1]
		s.resetBlock(bc, id, slot)
		s.blocks = append(s.blocks, bc)
		return
	}

	bc := &blockCtx{id: id, slot: slot, storage: s.m.NewBlock(s.launch.ExtraSharedBytes)}
	nRegs := s.kernel.NumRegs()
	for wi := 0; wi < s.m.Warps(); wi++ {
		w := &warp{block: bc, regReady: make([]int64, nRegs)}
		s.m.Bind(&w.Warp, bc.storage, wi)
		s.m.Start(&w.Warp, id)
		bc.warps = append(bc.warps, w)
		s.enrollWarp(w)
	}
	s.blocks = append(s.blocks, bc)
}

// enrollWarp assigns the next warp id/scheduler and adds the warp to the
// issue pools. Warp age (GTO's tiebreak) is the scheduler list order.
func (s *Simulator) enrollWarp(w *warp) {
	w.id = s.warpSeq
	w.sched = s.warpSeq % s.cfg.NumSchedulers
	s.warpSeq++
	w.block.liveWarps++
	s.warps = append(s.warps, w)
	w.schedIdx = len(s.schedWarps[w.sched])
	s.schedWarps[w.sched] = append(s.schedWarps[w.sched], w)
	s.schedUntil[w.sched] = append(s.schedUntil[w.sched], 0)
	s.schedReason[w.sched] = append(s.schedReason[w.sched], stallNone)
	s.liveSched[w.sched]++
}

// resetBlock rewinds a retired block context to pristine launch state: all
// register/local/shared storage zeroed, every warp back at pc 0 with a full
// mask, and the warps re-enrolled under fresh ids.
func (s *Simulator) resetBlock(bc *blockCtx, id, slot int) {
	bc.id = id
	bc.slot = slot
	bc.liveWarps = 0
	bc.arrived = 0
	bc.storage.Clear()
	for _, w := range bc.warps {
		w.done = false
		w.barrier = false
		w.hasPlan = false
		w.sbValid = false
		clear(w.regReady)
		s.m.Start(&w.Warp, id)
		s.enrollWarp(w)
	}
}

// retireBlock removes a finished block and backfills from the grid.
func (s *Simulator) retireBlock(bc *blockCtx) {
	for i, b := range s.blocks {
		if b == bc {
			s.blocks = append(s.blocks[:i], s.blocks[i+1:]...)
			break
		}
	}
	// Drop its warps from the scheduler pool.
	kept := s.warps[:0]
	for _, w := range s.warps {
		if w.block != bc {
			kept = append(kept, w)
		}
	}
	s.warps = kept
	for sched := range s.schedWarps {
		ks := s.schedWarps[sched][:0]
		ku := s.schedUntil[sched][:0]
		kr := s.schedReason[sched][:0]
		for i, w := range s.schedWarps[sched] {
			if w.block != bc {
				w.schedIdx = len(ks)
				ks = append(ks, w)
				ku = append(ku, s.schedUntil[sched][i])
				kr = append(kr, s.schedReason[sched][i])
			}
		}
		s.schedWarps[sched] = ks
		s.schedUntil[sched] = ku
		s.schedReason[sched] = kr
		s.current[sched] = nil
		s.lrrNext[sched] = 0
	}
	s.freeSlots = append(s.freeSlots, bc.slot)
	s.blockPool = append(s.blockPool, bc)
	s.stats.BlocksCompleted++
	if s.nextBlock < s.launch.Grid {
		s.launchBlock()
	}
}

// step advances one cycle: each scheduler issues at most one warp
// instruction. It reports whether any scheduler issued (the idle-watchdog
// signal).
func (s *Simulator) step() bool {
	s.l1.expire(s.now)
	issued := false
	for sched := 0; sched < s.cfg.NumSchedulers; sched++ {
		if s.issueFrom(sched) {
			issued = true
		}
	}
	if issued {
		s.idle = 0
	} else {
		s.idle++
		s.skipStalledCycles()
	}
	s.now++
	return issued
}

// skipStalledCycles fast-forwards the clock over cycles that would replay
// this cycle's no-issue verdict unchanged. When every live warp carries a
// cached stall with a known expiry, nothing can issue — and therefore no
// machine state changes — before the earliest of: a stall expiring, an
// in-flight L1 fill completing (expire must observe it at its exact cycle),
// or the livelock ceiling. Each skipped cycle charges the same per-scheduler
// stall counter this cycle just charged, so Stats are bit-identical to
// stepping cycle by cycle.
func (s *Simulator) skipStalledCycles() {
	h := s.stallHorizon()
	if h >= farFuture {
		return // a wedged machine must keep stepping for the watchdog
	}
	if n := s.l1.nextFill(); n > 0 && n < h {
		h = n
	}
	if mc := s.cfg.maxCycles(); h > mc {
		h = mc
	}
	d := h - s.now - 1
	// Never jump past the stall watchdog's trip point: it must fire at the
	// same cycle it would have when stepping.
	if lim := s.cfg.stallWindow() - s.idle; d > lim {
		d = lim
	}
	if d <= 0 {
		return
	}
	for sched := range s.lastStall {
		s.bumpStall(s.lastStall[sched], d)
	}
	s.now += d
	s.idle += d
}

// stallHorizon returns the earliest cycle at which some live warp's cached
// stall expires, or farFuture when at least one live warp has no cached
// expiry (structural stall, fresh enrollment) — in which case the machine
// must be re-evaluated every cycle.
func (s *Simulator) stallHorizon() int64 {
	h := farFuture
	for sched, list := range s.schedWarps {
		until := s.schedUntil[sched]
		for i := range list {
			u := until[i]
			if u <= s.now {
				if list[i].done {
					continue
				}
				return farFuture
			}
			if u < h {
				h = u
			}
		}
	}
	return h
}

// bumpStall charges n cycles to the stat bucket for reason r, mirroring the
// per-cycle accounting in issueFrom.
func (s *Simulator) bumpStall(r stallReason, n int64) {
	switch r {
	case stallCongestion:
		s.stats.StallCongestion += n
	case stallMemData:
		s.stats.StallMemData += n
	case stallALU:
		s.stats.StallALU += n
	case stallBarrier:
		s.stats.StallBarrier += n
	default:
		s.stats.StallEmpty += n
	}
}

// issueFrom lets scheduler sched pick and issue one warp, reporting whether
// one issued. GTO stays on the current warp while it can issue, otherwise
// falls back to the oldest ready warp; LRR rotates a cursor.
func (s *Simulator) issueFrom(sched int) bool {
	if s.liveSched[sched] == 0 {
		s.stats.StallEmpty++
		s.lastStall[sched] = stallEmpty
		return false
	}
	list := s.schedWarps[sched]
	until := s.schedUntil[sched]
	reasons := s.schedReason[sched]
	now := s.now

	worst := stallEmpty
	// tryIssue runs the full hazard check for a warp; the scan loops below
	// only reach it once the warp's cached stall has expired, so the common
	// case (a stalled warp) costs one array compare with no call at all.
	// Counting a warp's cached reason more than once is harmless: worst is a
	// minimum.
	if s.cfg.Scheduler == SchedGTO {
		cw := s.current[sched]
		if cw != nil && !cw.done {
			i := cw.schedIdx
			if now < until[i] {
				if r := reasons[i]; r < worst {
					worst = r
				}
			} else {
				ok, r := s.tryIssue(list[i], sched)
				if ok {
					return true
				}
				if r < worst && r != stallNone {
					worst = r
				}
			}
		}
		for i := range list {
			if now < until[i] {
				if r := reasons[i]; r < worst {
					worst = r
				}
				continue
			}
			if list[i] == cw {
				continue
			}
			ok, r := s.tryIssue(list[i], sched)
			if ok {
				return true
			}
			if r < worst && r != stallNone {
				worst = r
			}
		}
	} else {
		off := s.lrrNext[sched] % len(list)
		for i := 0; i < len(list); i++ {
			j := (off + i) % len(list)
			if now < until[j] {
				if r := reasons[j]; r < worst {
					worst = r
				}
				continue
			}
			ok, r := s.tryIssue(list[j], sched)
			if ok {
				s.lrrNext[sched] = (j + 1) % len(list)
				return true
			}
			if r < worst && r != stallNone {
				worst = r
			}
		}
	}

	s.bumpStall(worst, 1)
	s.lastStall[sched] = worst
	s.current[sched] = nil
	return false
}

// tryIssue runs the full hazard check for w on scheduler sched and executes
// the instruction on success. On failure it returns the observed stall
// reason (stallNone when the warp is already done).
func (s *Simulator) tryIssue(w *warp, sched int) (bool, stallReason) {
	if w.done {
		return false, stallNone
	}
	ok, reason := s.canIssue(w)
	if ok {
		s.execute(w)
		s.current[sched] = w
		s.stats.IssuedSlots++
		return true, stallNone
	}
	return false, reason
}

// cacheStall records that w cannot issue before `until` (exclusive) with the
// given reason, so issueFrom's scan can replay the verdict without re-entering
// canIssue. farFuture marks stalls with no self-expiry (barrier, exit); they
// are cleared by releaseBarrier or re-enrollment.
const farFuture = int64(1) << 62

func (s *Simulator) cacheStall(w *warp, r stallReason, until int64) {
	s.schedUntil[w.sched][w.schedIdx] = until
	s.schedReason[w.sched][w.schedIdx] = r
}

// canIssue checks structural and data hazards for the warp's next
// instruction.
func (s *Simulator) canIssue(w *warp) (bool, stallReason) {
	if w.done {
		return false, stallEmpty
	}
	if w.barrier {
		return false, stallBarrier
	}
	pc := w.Top().PC
	if pc >= len(s.m.Prog.Ops) {
		// Defensive: treat running off the end as exit.
		return true, stallNone
	}

	// Scoreboard: all read and written registers must be ready. The warp's
	// register ready-times only change when it executes, so the scan over
	// the precomputed use/def sets is memoized into three timestamps and
	// replayed as compares on every subsequent stalled cycle.
	if !w.sbValid {
		var aluT, memT int64
		for _, r := range s.uses[pc] {
			p := w.regReady[r]
			if p&1 != 0 {
				if t := p >> 1; t > memT {
					memT = t
				}
			} else if t := p >> 1; t > aluT {
				aluT = t
			}
		}
		w.sbALU, w.sbMem = aluT, memT
		w.sbDef, w.sbDefIsMem = 0, false
		if r := s.defs[pc]; r != ptx.NoReg {
			p := w.regReady[r]
			w.sbDef = p >> 1
			w.sbDefIsMem = p&1 != 0
		}
		w.sbValid = true
	}
	if w.sbALU > s.now {
		s.cacheStall(w, stallALU, w.sbALU)
		return false, stallALU
	}
	if w.sbMem > s.now {
		s.cacheStall(w, stallMemData, w.sbMem)
		return false, stallMemData
	}
	if w.sbDef > s.now {
		r := stallALU
		if w.sbDefIsMem {
			r = stallMemData
		}
		s.cacheStall(w, r, w.sbDef)
		return false, r
	}

	u := &s.m.Prog.Ops[pc]
	if u.Class == vec.ClassMem {
		if s.memPipeFree > s.now {
			return false, stallCongestion
		}
		plan := s.planFor(w, pc, u)
		needsMSHR := u.Space == ptx.SpaceLocal ||
			(u.Space == ptx.SpaceGlobal && u.Load && !u.Bypass)
		if needsMSHR {
			// Count the new misses this access would create; reject when
			// the MSHR file cannot absorb them.
			newMisses := 0
			for _, line := range plan.lines {
				if hit, pending := s.l1.probe(line); !hit && !pending {
					newMisses++
				}
			}
			if newMisses > s.l1.freeMSHRs() {
				return false, stallCongestion
			}
		}
	}
	return true, stallNone
}

// planFor computes (and caches) the memory transactions of the instruction
// at pc for warp w. Buffers are reused across calls to keep the hot path
// allocation-free.
func (s *Simulator) planFor(w *warp, pc int, u *vec.Op) *memPlan {
	if w.hasPlan && w.plan.pc == pc {
		return &w.plan
	}
	w.plan.pc = pc
	w.plan.lines = w.plan.lines[:0]
	w.plan.words = w.plan.words[:0]
	w.plan.conflicts = 0
	w.plan.bytes = 0
	plan := &w.plan
	size := uint64(u.Size)

	// An instruction accesses one space, so one set de-duplicates both
	// lists; lines keep the order they are first seen in, which is the
	// order accessCached sends them to L2 and DRAM.
	s.seen.reset()
	addLine := func(line uint64) {
		if s.seen.add(line) {
			plan.lines = append(plan.lines, line)
		}
	}
	addWord := func(word uint64) {
		if s.seen.add(word) {
			plan.words = append(plan.words, word)
		}
	}

	var base *[32]uint64
	if u.MemBase != ptx.NoReg {
		base = w.Plane(u.MemBase)
	}
	for m := w.ExecMask(u); m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		addr := u.MemOff
		if base != nil {
			addr += base[l]
		}
		plan.bytes += int64(size)
		switch u.Space {
		case ptx.SpaceGlobal:
			for b := uint64(0); b < size; b += 4 {
				addLine(s.l1.lineAddr(addr + b))
			}
		case ptx.SpaceLocal:
			// Interleaved physical layout: word w of thread t lives at
			// localBase + (w*MaxThreads + slotThread)*4.
			slotThread := uint64(w.block.slot*s.launch.Block + w.BaseTid + l)
			for b := uint64(0); b < size; b += 4 {
				word := (addr + b) / 4
				phys := localBase + (word*uint64(s.cfg.MaxThreadsPerSM)+slotThread)*4
				addLine(s.l1.lineAddr(phys))
			}
		case ptx.SpaceShared:
			for b := uint64(0); b < size; b += 4 {
				addWord((addr + b) / 4)
			}
		}
	}
	if len(plan.words) > 0 {
		var perBank [32]int
		for _, word := range plan.words {
			perBank[word%32]++
		}
		for _, c := range perBank {
			if c > plan.conflicts {
				plan.conflicts = c
			}
		}
	}
	if plan.conflicts == 0 {
		plan.conflicts = 1
	}
	w.hasPlan = true
	return plan
}
