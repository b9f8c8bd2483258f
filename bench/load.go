package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// phase is what one measured phase produced.
type phase struct {
	latMS  []float64       // latency per distinct op (see ops)
	ops    int             // ops completed; more than len(latMS) when a fixed op list was repeated
	window time.Duration   // the measuring window
	inWin  int             // ops completed inside the window
	cpu    time.Duration   // user+sys from the first send to the last reply
	cpuOps int             // the ops cpu was spent on
	endAt  []time.Duration // when each op of latMS ended, from the phase's start
	ticks  []tick          // client 0's clock and CPU readings, about sliceDur apart
}

func (p phase) opsPerSec() float64 { return float64(p.inWin) / p.window.Seconds() }

// sliceDur is the length of the slices a phase of short, alike ops is cut
// into. The guest's neighbours slow it down for seconds at a time; a
// median over slices leaves such an episode out where the whole window's
// mean carries it.
const sliceDur = 500 * time.Millisecond

// tick is one reading at a slice boundary: time since the phase started
// and CPU time used since then.
type tick struct{ at, cpu time.Duration }

// timeSlice is the part of a phase between two ticks.
type timeSlice struct {
	opsPerSec, cpuMSPerOp float64
	latMS                 []float64 // sorted
}

// cut divides the phase at its ticks: an op belongs to the slice it ended
// in. Ops that ended after the last tick, and slices without an op, are
// left out.
func (p phase) cut() []timeSlice {
	out := make([]timeSlice, max(len(p.ticks)-1, 0))
	for i, at := range p.endAt {
		k, _ := slices.BinarySearchFunc(p.ticks, at, func(t tick, at time.Duration) int { return cmp.Compare(t.at, at) })
		if k >= 1 && k < len(p.ticks) {
			out[k-1].latMS = append(out[k-1].latMS, p.latMS[i])
		}
	}
	kept := out[:0]
	for k, sl := range out {
		if n := float64(len(sl.latMS)); n > 0 {
			sl.opsPerSec = n / (p.ticks[k+1].at - p.ticks[k].at).Seconds()
			sl.cpuMSPerOp = ms(p.ticks[k+1].cpu-p.ticks[k].cpu) / n
			slices.Sort(sl.latMS)
			kept = append(kept, sl)
		}
	}
	return kept
}

// closedLoop drives do with `clients` closed-loop clients: each sends its
// next op only after the previous one returned, which is how every caller
// of this system behaves (they all wait for the reply). Ops are numbered
// 0..limit-1 and handed out in order; no op starts after the window
// closes, but ops in flight then run to completion so long ops are not
// censored from the latency sample. Throughput counts only completions
// inside the window, so one long op straddling the edge cannot stretch
// the denominator.
func closedLoop(clients, limit int, window time.Duration, do func(client, i int)) phase {
	var next, inWin atomic.Int64
	lats := make([][]float64, clients)
	ends := make([][]time.Duration, clients)
	ticks := []tick{{}}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				t := time.Now()
				do(c, i)
				end := time.Now()
				lats[c] = append(lats[c], ms(end.Sub(t)))
				at := end.Sub(start)
				ends[c] = append(ends[c], at)
				// Client 0 reads the CPU clock for all: only it touches ticks.
				if c == 0 && at >= ticks[len(ticks)-1].at+sliceDur && !end.After(deadline) {
					ticks = append(ticks, tick{at, cpuTime() - cpu0})
				}
				if !end.After(deadline) {
					inWin.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	p := phase{window: window, inWin: int(inWin.Load()), cpu: cpuTime() - cpu0, ticks: ticks}
	if end := time.Now(); end.Before(deadline) {
		// The op list ran out first: the window is what was used.
		p.window = end.Sub(start)
	}
	for c, l := range lats {
		p.latMS = append(p.latMS, l...)
		p.endAt = append(p.endAt, ends[c]...)
	}
	p.ops = len(p.latMS)
	p.cpuOps = p.ops
	return p
}
