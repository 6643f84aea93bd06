// Package testutil holds small helpers shared by the tests of several
// packages, the process-level tests in e2e included.
package testutil

import (
	"bytes"
	"fmt"
)

// DiffBytes compares two byte buffers that are expected to be identical —
// trace CSVs, sweep JSONL, HTTP response bodies — and reports the first
// difference line by line. It returns "" when the buffers are equal.
//
// Byte-for-byte equality of line-oriented output is this repo's standard
// determinism check, and "outputs differ" alone is useless for debugging
// a multi-megabyte trace; every comparison site wants the same thing:
// which line, and what each side said.
func DiffBytes(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("equal through line %d, then lengths differ: got %d line(s) (%d bytes), want %d line(s) (%d bytes)",
		n, len(gl), len(got), len(wl), len(want))
}
