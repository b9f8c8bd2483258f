package regalloc

import (
	"sort"

	"crat/internal/cfg"
	"crat/internal/ptx"
)

// colorLinear runs one round of Poletto-Sarkar linear-scan allocation over
// conservative linear live intervals from the cached liveness. It serves
// as the independent reference allocator for the spill-volume
// cross-validation of paper Figure 12 ("we do not attempt to implement a
// register allocator that perfectly matches the commercial compiler").
func (st *allocState) colorLinear(lv *cfg.Liveness) ([]int, []ptx.Reg, error) {
	ranges := lv.LiveRanges()

	// Intervals of referenced, non-predicate registers in start order.
	var ivs []cfg.LiveRange
	for _, r := range ranges {
		if r.Start < 0 {
			continue
		}
		if st.k.RegType(r.Reg).Class() == ptx.ClassPred {
			continue
		}
		ivs = append(ivs, r)
	}
	sort.Slice(ivs, func(a, b int) bool {
		if ivs[a].Start != ivs[b].Start {
			return ivs[a].Start < ivs[b].Start
		}
		return ivs[a].Reg < ivs[b].Reg
	})

	K := st.opts.Regs
	busy := make([]bool, K)
	assignment := make([]int, st.k.NumRegs()) // starting slot, -1 = uncolored
	for i := range assignment {
		assignment[i] = -1
	}
	var spills []ptx.Reg

	type activeIv struct {
		reg  ptx.Reg
		end  int
		slot int
		w    int
	}
	var active []activeIv

	slotsOf := func(r ptx.Reg) int { return st.k.RegType(r).Class().Slots() }

	free := func(a activeIv) {
		for i := 0; i < a.w; i++ {
			busy[a.slot+i] = false
		}
	}
	alloc := func(w int) int {
		for s := 0; s+w <= K; s++ {
			ok := true
			for i := 0; i < w; i++ {
				if busy[s+i] {
					ok = false
					break
				}
			}
			if ok {
				for i := 0; i < w; i++ {
					busy[s+i] = true
				}
				return s
			}
		}
		return -1
	}

	for _, iv := range ivs {
		// Expire intervals that ended before this start.
		kept := active[:0]
		for _, a := range active {
			if a.end < iv.Start {
				free(a)
			} else {
				kept = append(kept, a)
			}
		}
		active = kept

		w := slotsOf(iv.Reg)
		for {
			slot := alloc(w)
			if slot >= 0 {
				assignment[iv.Reg] = slot
				active = append(active, activeIv{iv.Reg, iv.End, slot, w})
				break
			}
			// No room: spill the spillable interval with the furthest end
			// (current interval included).
			victim := -1 // index into active, or -2 for current
			victimEnd := -1
			if !st.noSpill[iv.Reg] {
				victim = -2
				victimEnd = iv.End
			}
			for i, a := range active {
				if st.noSpill[a.reg] {
					continue
				}
				if a.end > victimEnd {
					victim = i
					victimEnd = a.end
				}
			}
			switch victim {
			case -1:
				return nil, nil, ErrInfeasible
			case -2:
				spills = append(spills, iv.Reg)
			default:
				v := active[victim]
				free(v)
				assignment[v.reg] = -1
				spills = append(spills, v.reg)
				active = append(active[:victim], active[victim+1:]...)
				continue // retry allocation for the current interval
			}
			break
		}
	}
	return assignment, spills, nil
}
