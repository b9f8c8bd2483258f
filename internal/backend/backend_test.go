package backend_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"crat/internal/backend"
	"crat/internal/gpusim"
	"crat/internal/ptx"
	"crat/internal/regalloc"
)

func TestSpareShm(t *testing.T) {
	fermi := gpusim.FermiConfig() // 48 KB per SM and per block
	roomy := fermi
	roomy.SharedMemBytes = 96 * 1024 // a lone block's share exceeds the per-block cap
	for _, tc := range []struct {
		name    string
		arch    gpusim.Config
		shmUsed int64
		tlp     int
		want    int64
	}{
		{"zero TLP", fermi, 0, 0, 0},
		{"negative TLP", fermi, 0, -1, 0},
		{"even share", fermi, 0, 2, 24 * 1024},
		{"share minus own use", fermi, 1024, 2, 24*1024 - 1024},
		{"per-block cap", roomy, 0, 1, 48 * 1024},
		{"per-block cap minus own use", roomy, 1024, 1, 48*1024 - 1024},
		{"own use beyond the share", fermi, 30 * 1024, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := backend.SpareShm(tc.arch, tc.shmUsed, tc.tlp); got != tc.want {
				t.Errorf("SpareShm(shmUsed=%d, tlp=%d) = %d, want %d", tc.shmUsed, tc.tlp, got, tc.want)
			}
		})
	}
}

func TestResolve(t *testing.T) {
	want := []string{"regdem", "crat", "crat-local"}
	bks, err := backend.Resolve(want)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, b := range bks {
		got = append(got, b.Name())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Resolve(%v) = %v, want the input order", want, got)
	}

	_, err = backend.Resolve([]string{"crat", "no-such-backend"})
	if err == nil {
		t.Fatal("Resolve accepted an unknown backend")
	}
	for _, frag := range []string{`"no-such-backend"`, fmt.Sprint(backend.Names())} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("Resolve error %q does not contain %q", err, frag)
		}
	}
}

func TestIsPipelineFault(t *testing.T) {
	verr := &ptx.VerifyError{Kernel: "k", Pass: "spill-insert", Inst: -1, Msg: "undefined register"}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"wrapped verify error", fmt.Errorf("candidate (32,4): %w", verr), true},
		{"infeasible budget", regalloc.ErrInfeasible, false},
		{"wrapped infeasible budget", fmt.Errorf("candidate (8,4): %w", regalloc.ErrInfeasible), false},
		{"nil", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := backend.IsPipelineFault(tc.err); got != tc.want {
				t.Errorf("IsPipelineFault(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}
