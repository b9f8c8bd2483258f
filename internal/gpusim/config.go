// Package gpusim is a cycle-level simulator for a single GPU streaming
// multiprocessor (SM) executing PTX kernels, in the spirit of GPGPU-Sim
// (Bakhoda et al., ISPASS'09), which the CRAT paper uses as its evaluation
// substrate.
//
// The simulator models: warp-granular in-order issue from two GTO (or
// round-robin) schedulers, a per-warp scoreboard with instruction
// latencies, SIMT divergence via immediate-post-dominator reconvergence
// stacks, a coalescing L1 data cache with a finite MSHR file, an L2 slice,
// a bandwidth-limited DRAM channel, shared memory with a bank-conflict
// model, and an occupancy calculator.
//
// All CRAT-relevant effects (paper Figures 1-6) are per-SM: TLP is defined
// as thread blocks per SM, cache contention lives in the per-SM L1, and
// register pressure is against the per-SM register file — so a single SM
// with a bandwidth-partitioned memory system reproduces the tradeoffs at a
// fraction of full-chip simulation cost (see DESIGN.md).
package gpusim

import "fmt"

// SchedPolicy selects the warp scheduling policy.
type SchedPolicy uint8

// Warp scheduling policies. GTO (greedy-then-oldest) is the paper's
// baseline (Table 2) and is load-bearing for the static OptTLP estimator;
// LRR (loose round-robin) exists for the scheduler ablation.
const (
	SchedGTO SchedPolicy = iota
	SchedLRR
)

// String names the policy.
func (s SchedPolicy) String() string {
	if s == SchedLRR {
		return "lrr"
	}
	return "gto"
}

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	SizeBytes int
	Assoc     int
	LineBytes int
	MSHRs     int // maximum outstanding missed lines (0 = unlimited)
}

// Sets returns the number of cache sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Assoc * c.LineBytes) }

// Config describes the simulated SM and memory system. The default values
// (FermiConfig) mirror paper Table 2.
type Config struct {
	Name string

	// SM resources (per SM).
	NumSMs          int // whole-GPU SM count; used only to partition L2/DRAM
	RegFileRegs     int // 32-bit registers per SM (128KB -> 32768)
	MaxRegPerThread int // ISA limit on registers per thread (63 on Fermi)
	SharedMemBytes  int // shared memory per SM
	MaxThreadsPerSM int
	MaxBlocksPerSM  int
	WarpSize        int
	NumSchedulers   int
	Scheduler       SchedPolicy

	// Latencies in core cycles.
	ALULat    int // simple int/fp pipeline
	SFULat    int // special function unit (rcp/sqrt/sin/...)
	SharedLat int // shared-memory access
	L1HitLat  int
	L2Lat     int // additional latency for an L1 miss hitting in L2
	DRAMLat   int // additional latency for an L2 miss

	// Memory system.
	L1 CacheConfig
	L2 CacheConfig // this SM's slice of the shared L2
	// DRAMBytesPerCycle is this SM's share of DRAM bandwidth.
	DRAMBytesPerCycle float64
	// MaxSharedPerBlock caps a single block's shared-memory use.
	MaxSharedPerBlock int

	// Clock, used only to convert cycles to wall time for energy.
	ClockMHz int

	// MaxCycles aborts runaway simulations. Zero means 200M.
	MaxCycles int64
	// StallWindow is the idle watchdog: if no scheduler issues an
	// instruction for this many consecutive cycles, the simulation aborts
	// with a FaultWatchdogStall instead of spinning to MaxCycles. Zero
	// means 1M cycles — far beyond any legitimate memory-system stall
	// (bounded by DRAM latency and queueing) but early enough to make a
	// wedged machine cheap to diagnose.
	StallWindow int64
}

// FermiConfig returns the Fermi-like configuration of paper Table 2:
// 15 SMs, 128KB register file, 48KB shared memory, 1536 threads and
// 8 blocks per SM, 2 GTO schedulers, 32KB 4-way L1 with 128B lines and
// 32 MSHRs, a 768KB 6-bank L2 (modeled as a per-SM slice).
func FermiConfig() Config {
	return Config{
		Name:            "fermi",
		NumSMs:          15,
		RegFileRegs:     32768, // 128KB
		MaxRegPerThread: 63,
		SharedMemBytes:  48 * 1024,
		MaxThreadsPerSM: 1536,
		MaxBlocksPerSM:  8,
		WarpSize:        32,
		NumSchedulers:   2,
		Scheduler:       SchedGTO,

		ALULat:    10,
		SFULat:    20,
		SharedLat: 26,
		L1HitLat:  34,
		L2Lat:     160,
		DRAMLat:   280,

		L1: CacheConfig{SizeBytes: 32 * 1024, Assoc: 4, LineBytes: 128, MSHRs: 32},
		// 768KB L2 across 15 SMs ~ 51KB/SM; rounded to a power-of-two
		// friendly 64KB 8-way slice.
		L2:                CacheConfig{SizeBytes: 64 * 1024, Assoc: 8, LineBytes: 128},
		DRAMBytesPerCycle: 12,
		MaxSharedPerBlock: 48 * 1024,
		ClockMHz:          700,
	}
}

// ConfigByName returns the architecture the tools call name: "fermi" or
// "kepler".
func ConfigByName(name string) (Config, error) {
	switch name {
	case "fermi":
		return FermiConfig(), nil
	case "kepler":
		return KeplerConfig(), nil
	}
	return Config{}, fmt.Errorf("gpusim: unknown arch %q (want fermi or kepler)", name)
}

// KeplerConfig returns the Kepler-like configuration of paper §7.3: the
// register file doubles to 256KB and the thread limit rises to 2048 per SM
// (block limit 16); the cache hierarchy matches the Fermi baseline.
func KeplerConfig() Config {
	c := FermiConfig()
	c.Name = "kepler"
	c.RegFileRegs = 65536 // 256KB
	c.MaxRegPerThread = 255
	c.MaxThreadsPerSM = 2048
	c.MaxBlocksPerSM = 16
	return c
}

func (c Config) maxCycles() int64 {
	if c.MaxCycles > 0 {
		return c.MaxCycles
	}
	return 200_000_000
}

func (c Config) stallWindow() int64 {
	if c.StallWindow > 0 {
		return c.StallWindow
	}
	return 1_000_000
}

// Occupancy returns the maximum number of thread blocks that can execute
// concurrently on one SM given the per-thread register usage, the
// per-block shared-memory usage, and the block size — the MaxTLP
// computation of paper §2.1 ("GPU kernel will launch as many thread blocks
// concurrently as possible until one or more dimension of resources are
// exhausted"). It returns 0 when a single block does not fit.
func (c Config) Occupancy(regsPerThread int, sharedPerBlock int64, blockSize int) int {
	if blockSize <= 0 || blockSize > c.MaxThreadsPerSM {
		return 0
	}
	if sharedPerBlock > int64(c.MaxSharedPerBlock) {
		return 0
	}
	n := c.MaxBlocksPerSM
	if byThreads := c.MaxThreadsPerSM / blockSize; byThreads < n {
		n = byThreads
	}
	if regsPerThread > 0 {
		regsPerBlock := regsPerThread * blockSize
		if regsPerBlock > c.RegFileRegs {
			return 0
		}
		if byRegs := c.RegFileRegs / regsPerBlock; byRegs < n {
			n = byRegs
		}
	}
	if sharedPerBlock > 0 {
		if byShm := int(int64(c.SharedMemBytes) / sharedPerBlock); byShm < n {
			n = byShm
		}
	}
	return n
}

// MinReg is the architecture-dependent lower bound of useful register
// per-thread values: NumRegister / MaxThreads (paper §4.1). Allocating
// fewer registers than this cannot raise the TLP any further.
func (c Config) MinReg() int {
	return c.RegFileRegs / c.MaxThreadsPerSM
}
