package gpusim

import (
	"context"
	"fmt"

	"crat/internal/pool"
	"crat/internal/ptx"
)

// Costs holds per-access latencies measured on the simulated architecture
// through microbenchmarks, as the paper's TPSC model requires ("Cost_local
// and Cost_shm are measured on the target architecture through micro
// benchmarks", §6).
type Costs struct {
	Local  float64 // cycles per dependent local-memory access (L1-resident)
	Shared float64 // cycles per dependent shared-memory access
}

// chainKernel builds a single-warp dependent-access loop: iters iterations
// of a load whose result feeds the next address (space selects local or
// shared; SpaceNone builds the no-load control loop used to subtract loop
// overhead).
func chainKernel(space ptx.Space, iters int) *ptx.Kernel {
	b := ptx.NewBuilder("micro_" + space.String())
	b.Param("out", ptx.U64)
	out := b.Reg(ptx.U64)
	b.LdParam(ptx.U64, out, "out")

	v := b.Reg(ptx.U32)
	i := b.Reg(ptx.U32)
	p := b.Reg(ptx.Pred)
	b.Mov(ptx.U32, v, ptx.Imm(0))
	b.Mov(ptx.U32, i, ptx.Imm(0))

	switch space {
	case ptx.SpaceLocal:
		b.LocalArray("chain", 64)
		base := b.Reg(ptx.U64)
		b.Mov(ptx.U64, base, ptx.Sym("chain"))
		b.St(ptx.SpaceLocal, ptx.U32, ptx.MemReg(base, 0), ptx.R(v))
		wide := b.Reg(ptx.U64)
		addr := b.Reg(ptx.U64)
		b.Label("LOOP").Cvt(ptx.U64, ptx.U32, wide, ptx.R(v))
		b.Add(ptx.U64, addr, ptx.R(base), ptx.R(wide))
		b.Ld(ptx.SpaceLocal, ptx.U32, v, ptx.MemReg(addr, 0))
	case ptx.SpaceShared:
		b.SharedArray("chain", 64)
		base := b.Reg(ptx.U32)
		b.Mov(ptx.U32, base, ptx.Sym("chain"))
		b.St(ptx.SpaceShared, ptx.U32, ptx.MemReg(base, 0), ptx.R(v))
		addr := b.Reg(ptx.U32)
		b.Label("LOOP").Add(ptx.U32, addr, ptx.R(base), ptx.R(v))
		b.Ld(ptx.SpaceShared, ptx.U32, v, ptx.MemReg(addr, 0))
	default:
		// Control loop: same shape, dependent ALU op instead of the load.
		b.Label("LOOP").Add(ptx.U32, v, ptx.R(v), ptx.Imm(0))
	}
	b.Add(ptx.U32, i, ptx.R(i), ptx.Imm(1))
	b.Setp(ptx.CmpLt, ptx.U32, p, ptx.R(i), ptx.Imm(int64(iters)))
	b.BraIf(p, false, "LOOP")
	b.St(ptx.SpaceGlobal, ptx.U32, ptx.MemReg(out, 0), ptx.R(v))
	b.Exit()
	return b.Kernel()
}

func runChain(cfg Config, space ptx.Space, iters int) (int64, error) {
	mem := NewMemory()
	outBuf := mem.Alloc(4)
	sim, err := NewSimulator(cfg, mem, Launch{
		Kernel: chainKernel(space, iters),
		Grid:   1,
		Block:  32,
		Params: []uint64{outBuf},
	})
	if err != nil {
		return 0, err
	}
	st, err := sim.Run()
	if err != nil {
		return 0, err
	}
	return st.Cycles, nil
}

// measuredCosts memoizes MeasureCosts per configuration: the
// microbenchmarks are deterministic, so a process measures each
// configuration once.
var measuredCosts = pool.NewMemo[Config, Costs]()

// MeasureCosts runs the latency microbenchmarks on the given configuration
// and returns the per-access local and shared costs. The control loop's
// cycles are subtracted so only the access latency remains. The result is
// memoized per Config.
func MeasureCosts(cfg Config) (Costs, error) {
	c, _, err := measuredCosts.Do(context.Background(), cfg, func() (Costs, error) { return measureCosts(cfg) })
	return c, err
}

func measureCosts(cfg Config) (Costs, error) {
	const iters = 256
	baseline, err := runChain(cfg, ptx.SpaceNone, iters)
	if err != nil {
		return Costs{}, fmt.Errorf("gpusim: baseline microbench: %w", err)
	}
	local, err := runChain(cfg, ptx.SpaceLocal, iters)
	if err != nil {
		return Costs{}, fmt.Errorf("gpusim: local microbench: %w", err)
	}
	shared, err := runChain(cfg, ptx.SpaceShared, iters)
	if err != nil {
		return Costs{}, fmt.Errorf("gpusim: shared microbench: %w", err)
	}
	c := Costs{
		Local:  float64(local-baseline) / iters,
		Shared: float64(shared-baseline) / iters,
	}
	if c.Local < 1 {
		c.Local = 1
	}
	if c.Shared < 1 {
		c.Shared = 1
	}
	return c, nil
}
