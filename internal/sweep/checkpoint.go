package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"hsfq/internal/checkpoint"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
)

// PrefixKey is the content address of a simulation's horizon-independent
// prefix: JobKey with the horizon zeroed. Two jobs with equal prefix keys
// describe the same deterministic run observed for different lengths, so
// a checkpoint taken at tick T of one is a valid starting point for the
// other whenever T does not exceed its horizon. That is the soundness
// argument behind horizon extension: resume equivalence (the checkpoint
// subsystem's tested invariant) plus prefix-key equality give byte-
// identical results without re-simulating the shared prefix.
func PrefixKey(c simconfig.Config, seed uint64) string {
	c.Horizon = 0
	return JobKey(c, seed)
}

// Store is a directory of simulation checkpoints keyed by prefix key and
// snapshot instant: <prefixkey>.at<ns>.ckpt. Writes are atomic
// (tmp+rename), so concurrent sweep workers and daemon requests can share
// a directory; corrupt or unreadable entries are skipped, never fatal —
// the worst outcome of a bad store is a full re-simulation.
type Store struct {
	Dir string
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty checkpoint dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: checkpoint dir: %w", err)
	}
	return &Store{Dir: dir}, nil
}

func (st *Store) path(prefix string, at sim.Time) string {
	return filepath.Join(st.Dir, fmt.Sprintf("%s.at%d.ckpt", prefix, int64(at)))
}

// Best returns the latest stored checkpoint for the prefix taken at or
// before maxAt, or ok=false if none is usable. Decoding is not attempted
// here; a corrupt file surfaces as a Restore error and the caller falls
// back to full execution.
func (st *Store) Best(prefix string, maxAt sim.Time) (data []byte, at sim.Time, ok bool) {
	// The prefix is hex SHA-256: no glob metacharacters.
	matches, err := filepath.Glob(filepath.Join(st.Dir, prefix+".at*.ckpt"))
	if err != nil {
		return nil, 0, false
	}
	best := sim.Time(-1)
	var bestPath string
	for _, m := range matches {
		name := filepath.Base(m)
		rest, found := strings.CutPrefix(name, prefix+".at")
		if !found {
			continue
		}
		ns, err := strconv.ParseInt(strings.TrimSuffix(rest, ".ckpt"), 10, 64)
		if err != nil || ns < 0 {
			continue
		}
		if t := sim.Time(ns); t <= maxAt && t > best {
			best, bestPath = t, m
		}
	}
	if best < 0 {
		return nil, 0, false
	}
	b, err := os.ReadFile(bestPath)
	if err != nil {
		return nil, 0, false
	}
	return b, best, true
}

// Put stores a checkpoint atomically. Errors are returned for the caller
// to log; a failed write never fails the job that produced it.
func (st *Store) Put(prefix string, at sim.Time, data []byte) error {
	return checkpoint.WriteFile(st.path(prefix, at), data)
}
