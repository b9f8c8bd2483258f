// Package cli holds what the command-line front ends share: each runs its
// body as run(args, stdout, stderr) error, and Exit turns that error into
// the process's exit status.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// UsageError is a command-line mistake: Exit returns 2 for it instead of
// 1. An empty Msg means the mistake is already reported (the flag package
// reports its own).
type UsageError struct{ Msg string }

func (e UsageError) Error() string { return e.Msg }

// Exit reports err on stderr as "name: err" and returns the exit status:
// 0 for nil or -h, 2 for a UsageError, 1 for any other failure.
func Exit(name string, err error, stderr io.Writer) int {
	var uerr UsageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case !errors.As(err, &uerr):
		fmt.Fprintln(stderr, name+":", err)
		return 1
	case uerr.Msg != "":
		fmt.Fprintln(stderr, name+":", err)
	}
	return 2
}
