//go:build race

package buildinfo

// RaceEnabled reports whether this binary was compiled with the race
// detector. Race builds run the simulator an order of magnitude slower, so
// the benchmark (bench/) refuses to run in one.
const RaceEnabled = true
