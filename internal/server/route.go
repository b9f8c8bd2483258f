package server

import (
	"fmt"

	"crat/internal/checkpoint"
)

// routeSchema versions the gateway's placement hash independently of the
// daemon cacheSchema: bumping one must not silently remap the other.
// Changing routeSchema reshuffles which replica owns which key (a cold
// restart of the fleet's cache affinity), nothing more — correctness
// never depends on placement.
const routeSchema = "cratgw-route/v3"

// RouteKey returns the stable content-address the cratgw gateway hashes
// onto its replica ring. It covers the request's semantic fields exactly
// as the client sent them (Verify stays tri-state and Backends stays
// unresolved: the gateway must not guess the daemons' defaults), so the
// same compile from any
// client always lands on the same replica and hits that replica's warm
// memory/journal tiers. It deliberately does NOT resolve server-side
// defaults the way normalize does — placement only needs determinism
// over the wire request, and every replica shares one configuration.
func RouteKey(req CompileRequest) (string, error) {
	verify := 0 // unset
	if req.Verify != nil {
		verify = 1 // explicit false
		if *req.Verify {
			verify = 2 // explicit true
		}
	}
	key, err := checkpoint.Hash(struct {
		Schema     string
		PTX        string
		Kernel     string
		Arch       string
		Block      int
		Grid       int
		OptTLP     int
		Coalesce   bool
		Backends   []string
		Verify     int
		VerifyRuns int
		VerifySeed int64
	}{routeSchema, req.PTX, req.Kernel, req.Arch, req.Block, req.Grid,
		req.OptTLP, req.Coalesce, req.Backends, verify, req.VerifyRuns, req.VerifySeed})
	if err != nil {
		return "", fmt.Errorf("hashing route key: %w", err)
	}
	return key, nil
}
