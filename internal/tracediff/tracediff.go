// Package tracediff localizes the first divergent scheduling event
// between two simulation runs — the checkpoint-grid bisection behind
// cmd/hsfqdiff, shared with hsfqd's POST /v1/diff endpoint.
//
// Replaying two full traces to find one differing row is wasteful, so
// the diff bisects with checkpoints: each run executes once while a
// streaming hasher folds every event into a SHA-256 and an in-memory
// checkpoint of the full simulator state is captured at `grid` evenly
// spaced instants, each paired with the digest of the stream so far.
// The last instant where both prefixes agree bounds the divergence; only
// that final grid cell is replayed — restored from each run's own
// checkpoint — with full event recording to pinpoint the first
// mismatching row. Event storage is O(horizon/grid), not O(horizon).
package tracediff

import (
	"fmt"

	"hsfq/internal/checkpoint"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/trace"
)

// Result statuses.
const (
	StatusIdentical = "identical"
	StatusDivergent = "divergent"
)

// Input is one side of a diff: a parsed config plus its seed override.
type Input struct {
	Label  string
	Config simconfig.Config
	Seed   uint64
}

// FirstRows is the first pair of canonical event rows that disagree;
// "<end of stream>" marks the shorter side running out of events.
type FirstRows struct {
	A string `json:"a"`
	B string `json:"b"`
}

// Result is the outcome of a diff. Its JSON encoding is the schema of
// both `hsfqdiff -json` and hsfqd's POST /v1/diff response.
type Result struct {
	// Status is "identical" or "divergent".
	Status string `json:"status"`
	// Rows and Digest describe the complete stream when identical, and
	// side A's stream when divergent.
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
	// DivergenceAtNs is the simulated time of the first divergent event.
	DivergenceAtNs int64 `json:"divergence_at_ns,omitempty"`
	// FirstRows holds the first disagreeing row pair.
	FirstRows *FirstRows `json:"first_rows,omitempty"`
	// ReplayFromInstant / Grid / ReplayFromNs locate the replayed grid
	// cell; EventsA / EventsB count the events recorded in that window.
	ReplayFromInstant int   `json:"replay_from_instant,omitempty"`
	Grid              int   `json:"grid,omitempty"`
	ReplayFromNs      int64 `json:"replay_from_ns,omitempty"`
	EventsA           int   `json:"events_a,omitempty"`
	EventsB           int   `json:"events_b,omitempty"`
}

// Divergent reports whether the runs parted ways.
func (r *Result) Divergent() bool { return r.Status == StatusDivergent }

// side is one probed run: its buildable inputs plus the artifacts of the
// probe pass — grid checkpoints with prefix digests, and the digest of
// the complete stream.
type side struct {
	in       Input
	horizon  sim.Time
	numCores int

	ckpt    [][]byte // ckpt[i] = state at horizon*i/grid; [0] unused (rebuild)
	digest  []string // digest[i] = stream digest at that instant
	rows    []int    // rows[i] = events hashed by that instant
	final   string
	finalRN int
}

// Diff probes both runs and, if they differ, bisects and replays the
// last agreeing grid cell to pinpoint the first divergent event. warn
// receives non-fatal probe diagnostics (failed checkpoint encodes); nil
// discards them.
func Diff(a, b Input, grid int, warn func(format string, args ...any)) (*Result, error) {
	if grid < 1 {
		return nil, fmt.Errorf("grid must be at least 1")
	}
	if warn == nil {
		warn = func(string, ...any) {}
	}
	sa, err := probe(a, grid, warn)
	if err != nil {
		return nil, err
	}
	sb, err := probe(b, grid, warn)
	if err != nil {
		return nil, err
	}
	if sa.horizon != sb.horizon {
		return nil, fmt.Errorf("horizons differ (%v vs %v); divergence search needs a common horizon", sa.horizon, sb.horizon)
	}

	if sa.final == sb.final && sa.finalRN == sb.finalRN {
		return &Result{Status: StatusIdentical, Rows: sa.finalRN, Digest: sa.final}, nil
	}

	// Bisect: the last grid instant where both prefixes agree. Index 0
	// (the empty prefix) always agrees.
	from := 0
	for i := grid - 1; i > 0; i-- {
		if sa.ckpt[i] != nil && sb.ckpt[i] != nil && sa.digest[i] == sb.digest[i] && sa.rows[i] == sb.rows[i] {
			from = i
			break
		}
	}

	evA, err := sa.replay(from)
	if err != nil {
		return nil, err
	}
	evB, err := sb.replay(from)
	if err != nil {
		return nil, err
	}
	numCores := sa.numCores
	if sb.numCores > numCores {
		numCores = sb.numCores
	}
	at, rowA, rowB, found := firstDivergence(evA, evB, numCores)
	if !found {
		return nil, fmt.Errorf("streams differ in digest but replays from instant %d/%d agree; checkpoint state is inconsistent", from, grid)
	}
	return &Result{
		Status:            StatusDivergent,
		Rows:              sa.finalRN,
		Digest:            sa.final,
		DivergenceAtNs:    int64(at),
		FirstRows:         &FirstRows{A: rowA, B: rowB},
		ReplayFromInstant: from,
		Grid:              grid,
		ReplayFromNs:      int64(sa.horizon * sim.Time(from) / sim.Time(grid)),
		EventsA:           len(evA),
		EventsB:           len(evB),
	}, nil
}

// probe executes one run start to finish, folding every event into a
// streaming hash and snapshotting state + prefix digest at each grid
// instant. Checkpoints that fail to encode leave a nil slot: the
// bisection then falls back to an earlier instant.
func probe(in Input, grid int, warn func(format string, args ...any)) (*side, error) {
	s, err := simconfig.Build(in.Config, simconfig.BuildOptions{Seed: in.Seed})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.Label, err)
	}

	sd := &side{
		in:      in,
		horizon: s.Config.Horizon.Time(),
		ckpt:    make([][]byte, grid),
		digest:  make([]string, grid),
		rows:    make([]int, grid),
	}
	h := trace.NewHasher()
	s.Machine.Listen(h)
	sd.numCores = s.Machine.NumCores()
	for i := 1; i < grid; i++ {
		at := sd.horizon * sim.Time(i) / sim.Time(grid)
		if at <= 0 {
			continue
		}
		i := i
		s.Engine.At(at, func() {
			if data, err := checkpoint.Save(s, checkpoint.Options{}); err == nil {
				sd.ckpt[i] = data
			} else {
				warn("%s: checkpoint at %v: %v", in.Label, at, err)
			}
			sd.digest[i] = h.Sum()
			sd.rows[i] = h.Rows()
		})
	}
	s.Run()
	sd.final = h.Sum()
	sd.finalRN = h.Rows()
	return sd, nil
}

// replay re-executes the run from grid instant `from` to the horizon with
// full event recording. Instant 0 rebuilds from the config; later
// instants restore the probe's checkpoint, which resume equivalence
// guarantees continues byte-identically to the original run.
func (sd *side) replay(from int) ([]trace.Event, error) {
	var s *simconfig.Simulation
	var err error
	if from == 0 {
		s, err = simconfig.Build(sd.in.Config, simconfig.BuildOptions{Seed: sd.in.Seed})
	} else {
		s, err = checkpoint.Restore(sd.ckpt[from], checkpoint.Options{})
	}
	if err != nil {
		return nil, fmt.Errorf("%s: replay from instant %d: %w", sd.in.Label, from, err)
	}
	rec := trace.NewRecorder()
	s.Machine.Listen(rec)
	s.Run()
	return rec.Events(), nil
}

// firstDivergence scans two replayed windows for the first event where
// they disagree, comparing the same canonical row text the hasher folds.
func firstDivergence(a, b []trace.Event, numCores int) (at sim.Time, rowA, rowB string, found bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		ra, rb := trace.RowText(a[i], numCores), trace.RowText(b[i], numCores)
		if ra != rb {
			at = a[i].At
			if b[i].At < at {
				at = b[i].At
			}
			return at, ra, rb, true
		}
	}
	switch {
	case len(a) > n:
		return a[n].At, trace.RowText(a[n], numCores), "<end of stream>", true
	case len(b) > n:
		return b[n].At, "<end of stream>", trace.RowText(b[n], numCores), true
	}
	return 0, "", "", false
}
