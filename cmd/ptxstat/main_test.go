package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crat/internal/cli"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current ptxstat")

// TestGolden pins the full output of ptxstat -cfg -ranges (exit status, stdout,
// stderr) on cratc's example kernel in testdata/golden.txt.
func TestGolden(t *testing.T) {
	args := []string{"-cfg", "-ranges"}
	full := append([]string{"-in", filepath.Join("..", "cratc", "testdata", "example.ptx")}, args...)
	var stdout, stderr bytes.Buffer
	code := cli.Exit("ptxstat", run(full, &stdout, &stderr), &stderr)
	got := fmt.Sprintf("args: %s\nexit: %d\n--- stdout\n%s--- stderr\n%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
	path := filepath.Join("testdata", "golden.txt")
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
		t.Errorf("output differs from %s (rerun with -update to accept)\n%s", path, got)
	}
}
