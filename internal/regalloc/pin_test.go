package regalloc

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"crat/internal/emu/ptxgen"
	"crat/internal/ptx"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/pin.txt from the current allocator")

const pinFile = "testdata/pin.txt"

// pinVariants are the option sets the pin table covers. The default run is
// what every CRAT candidate uses; the others exercise the coalescing
// pre-pass and the unweighted spill metric, which read the interference
// graph differently.
var pinVariants = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"coalesce", Options{Coalesce: true}},
	{"unweighted", Options{UnweightedSpillCost: true}},
}

// pinDigest condenses everything an allocation decides — the physical
// kernel, the spill slots, the register count and the number of
// build-color-spill rounds — into a short hash.
func pinDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%+v\n%d %d\n", ptx.Print(res.Kernel), res.Spills, res.UsedRegs, res.Iterations)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// pinTable allocates every ptxgen kernel of the corpus at every budget from
// its feasible floor to a few slots past its MaxReg under every variant,
// and returns one line per allocation.
func pinTable(t *testing.T) []string {
	var lines []string
	for _, corpus := range []struct {
		ops   int
		seeds int64
	}{{24, 8}, {48, 8}, {96, 2}} {
		ops := corpus.ops
		for seed := int64(1); seed <= corpus.seeds; seed++ {
			k := ptxgen.Generate(ptxgen.Config{Seed: seed, Block: 64, MaxOps: ops})
			maxReg, err := MaxReg(k)
			if err != nil {
				t.Fatalf("seed %d ops %d: MaxReg: %v", seed, ops, err)
			}
			for _, v := range pinVariants {
				feasible := false
				for b := 4; b <= maxReg+4; b++ {
					opts := v.opts
					opts.Regs = b
					res, err := Allocate(k, opts)
					if errors.Is(err, ErrInfeasible) && !feasible {
						continue // below the floor
					}
					key := fmt.Sprintf("ops=%d seed=%d %s reg=%d", ops, seed, v.name, b)
					if err != nil {
						lines = append(lines, key+" error "+err.Error())
						continue
					}
					feasible = true
					lines = append(lines, key+" "+pinDigest(res))
				}
			}
		}
	}
	return lines
}

// TestAllocationPin checks that the allocator's output is exactly what the
// checked-in table records: the same physical kernel, spill slots, register
// count and round count for every (kernel, budget, variant). Any change to
// the simplify pick order, the select rule or spill insertion moves a
// digest. Regenerate with `go test ./internal/regalloc -run
// TestAllocationPin -update` only for an intended change of allocation.
func TestAllocationPin(t *testing.T) {
	got := pinTable(t)
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		body := "# ptxgen block=64: key digest(ptx.Print(Kernel), Spills, UsedRegs, Iterations)\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(pinFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("pin table has %d allocations, want %d", len(got), len(want))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("allocation moved:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more", bad-10)
	}
}
