package gpusim

import "crat/internal/sem"

// Memory is the sparse global-memory image shared with the functional
// emulator; it lives in internal/sem so both engines (and the differential
// oracle) operate on the same representation. The alias keeps gpusim's
// public API stable.
type Memory = sem.Memory

// NewMemory returns an empty memory. Allocations start at a non-zero base
// so that address 0 stays invalid (a null pointer).
func NewMemory() *Memory { return sem.NewMemory() }
