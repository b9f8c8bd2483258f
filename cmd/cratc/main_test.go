package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current cratc")

// goldenCases are cratc invocations over testdata/example.ptx whose full
// output (exit status, PTX on stdout, diagnostics on stderr) is pinned in
// testdata/golden/<name>.txt.
var goldenCases = []struct {
	name string
	args []string
}{
	{"search", nil},
	{"no-shared-spill", []string{"-no-shared-spill"}},
	{"backend-crat-regdem", []string{"-backend", "crat,regdem"}},
	{"coalesce", []string{"-coalesce"}},
	{"kepler", []string{"-arch", "kepler"}},
	{"verbose", []string{"-v"}},
	{"verbose-kepler-block256", []string{"-v", "-arch", "kepler", "-block", "256"}},
	{"reg-spill", []string{"-reg", "8"}},
	{"reg-spill-tlp", []string{"-reg", "8", "-tlp", "4"}},
	{"reg-spill-local", []string{"-reg", "10", "-no-shared-spill"}},
	{"reg-spill-coalesce-kepler", []string{"-reg", "12", "-coalesce", "-arch", "kepler"}},
	{"reg-spill-free", []string{"-reg", "25"}},
	{"reg-above-need-block1024", []string{"-reg", "40", "-block", "1024"}}, // launches at the kernel's own register need
	{"reg-negative", []string{"-reg", "-1", "-v"}},                         // not a budget: the ordinary search
	{"verify", []string{"-verify"}},
	{"reg-verify", []string{"-reg", "8", "-verify"}},
	{"reg-backend-rejected", []string{"-reg", "8", "-backend", "crat"}},
	{"reg-no-launch", []string{"-reg", "16", "-block", "2048"}}, // no block fits the SM: Analyze rejects it
	{"reg-infeasible", []string{"-reg", "6"}},                   // below what the allocator can honor
	{"passes", []string{"-passes"}},
	{"missing-block", []string{"-block", "0"}},
}

// invoke runs cratc on the example kernel (block 64, grid 2 unless args
// override them) and renders what a shell user would see.
func invoke(args []string) string {
	full := append([]string{"-in", filepath.Join("testdata", "example.ptx"), "-block", "64", "-grid", "2"}, args...)
	var stdout, stderr bytes.Buffer
	code := exit(run(full, &stdout, &stderr), &stderr)
	return fmt.Sprintf("args: %s\nexit: %d\n--- stdout\n%s--- stderr\n%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			got := invoke(c.args)
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("cratc %s: output differs from %s (rerun with -update to accept)\n%s", strings.Join(c.args, " "), path, got)
			}
		})
	}
}

// TestFlagErrors: command-line mistakes exit 2 with the reason instead of
// compiling something the user did not ask for.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-arch", "volta"}, `unknown arch "volta"`},
		{[]string{"-arch", "Kepler"}, `unknown arch "Kepler"`},
		{[]string{"-no-shared-spill", "-backend", "crat"}, "cannot be combined with a backend list"},
	} {
		got := invoke(c.args)
		if !strings.Contains(got, "exit: 2\n") || !strings.Contains(got, c.want) {
			t.Errorf("cratc %s: want exit 2 and %q, got\n%s", strings.Join(c.args, " "), c.want, got)
		}
	}
}
