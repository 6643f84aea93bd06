// Package e2e tests the command-line tools as real processes: the
// assertions that need a SIGKILL, a SIGTERM drain, or a saturated
// daemon, plus a run-twice check of the output bytes of every CLI and
// example program. Everything that can run in process is tested in the
// package that owns the code.
//
// The tests sit behind the e2e build tag. TestMain builds every CLI under
// cmd/ and every program under examples/ once from the tree under test:
//
//	go test -tags e2e -count=1 ./e2e
//
// Two serving tests time a saturated daemon, so the serving tests run
// alone; the other tests call t.Parallel and run together after them.
//
// This file carries no tag so that an untagged `go test ./...` sees a
// package with no test files instead of failing to set one up.
package e2e
