package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder is the demotion order of the tail percentile: a percentile
// is admissible only with at least minBeyond samples beyond it, because
// fewer make it the reading of a handful of outliers.
var tailLadder = []int{99, 95, 90, 75}

const minBeyond = 10

// rank is the nearest-rank index (0-based) of percentile p in n samples.
func rank(p, n int) int {
	r := (p*n + 99) / 100 // ceil(p*n/100)
	if r < 1 {
		r = 1
	}
	return r - 1
}

// pickTail returns the highest percentile of the ladder that is at most
// limit and leaves at least minBeyond of n samples beyond it. ok is false
// when not even the lowest rung is admissible (tiny -quick runs); the
// lowest rung is returned then so a number can still be printed.
func pickTail(n, limit int) (p int, ok bool) {
	for _, p := range tailLadder {
		if p <= limit && n-(rank(p, n)+1) >= minBeyond {
			return p, true
		}
	}
	return tailLadder[len(tailLadder)-1], false
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))]
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark. One
// workload runs per process, so it is that workload's peak.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
