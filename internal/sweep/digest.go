package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"hsfq/internal/simconfig"
)

// Canonical renders the observable outcome of a completed simulation in a
// stable text form: machine counters, per-thread accounting in attach
// order, and per-program metrics in name order. Two runs of the same
// config at the same seed must produce identical canonical forms; that is
// the determinism contract Digest checks.
func Canonical(s *simconfig.Simulation) string {
	return string(appendCanonical(nil, s))
}

// appendCanonical appends Canonical's text to b. It renders with strconv
// appends, byte for byte what fmt's %d and %s made of the same values.
func appendCanonical(b []byte, s *simconfig.Simulation) []byte {
	st := s.Machine.Stats()
	b = appendField(append(b, "machine"...), "work", int64(st.Work))
	b = appendField(b, "dispatches", st.Dispatches)
	b = appendField(b, "preemptions", st.Preemptions)
	b = appendField(b, "interrupts", st.Interrupts)
	b = appendField(b, "stolen", int64(st.Stolen))
	b = append(appendField(b, "idle", int64(st.Idle)), '\n')
	// Per-core lines appear only on multicore machines so single-core
	// digests stay byte-identical to the pre-SMP format.
	if n := s.Machine.NumCores(); n > 1 {
		b = append(appendField(append(b, "machine"...), "migrations", st.Migrations), '\n')
		for c := 0; c < n; c++ {
			cs := s.Machine.CoreStats(c)
			b = strconv.AppendInt(append(b, "core "...), int64(c), 10)
			b = appendField(b, "work", int64(cs.Work))
			b = appendField(b, "dispatches", cs.Dispatches)
			b = appendField(b, "preemptions", cs.Preemptions)
			b = appendField(b, "migrations", cs.Migrations)
			b = append(appendField(b, "idle", int64(cs.Idle)), '\n')
		}
	}
	for _, th := range s.Threads {
		b = append(append(b, "thread "...), th.Name...)
		b = appendField(b, "done", int64(th.Done))
		b = appendField(b, "segments", int64(th.Segments))
		b = appendField(b, "waited", int64(th.Waited))
		b = append(append(append(b, " state="...), th.State.String()...), '\n')
	}
	horizon := s.Config.Horizon.Time()
	for _, name := range sortedKeys(s.Periodics) {
		p := s.Periodics[name]
		b = append(append(b, "periodic "...), name...)
		b = appendField(b, "rounds", int64(len(p.Slack)))
		b = appendField(b, "missed", int64(p.MissedDeadlines()))
		b = append(appendField(b, "minslack", int64(p.MinSlack())), '\n')
	}
	for _, name := range sortedKeys(s.Decoders) {
		b = append(append(b, "decoder "...), name...)
		b = append(appendField(b, "frames", int64(s.Decoders[name].FramesDecoded(horizon))), '\n')
	}
	return b
}

// appendField appends " key=v".
func appendField(b []byte, key string, v int64) []byte {
	b = append(append(append(b, ' '), key...), '=')
	return strconv.AppendInt(b, v, 10)
}

// Digest returns the hex SHA-256 of the simulation's canonical outcome.
func Digest(s *simconfig.Simulation) string {
	var buf [1024]byte
	sum := sha256.Sum256(appendCanonical(buf[:0], s))
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:]) // one allocation; EncodeToString makes two
}

// JobKey returns the content address of a simulation request: the hex
// SHA-256 of the config's canonical JSON (struct marshaling fixes field
// order; Config holds no maps) plus the instantiation seed. Two requests
// with equal keys describe the same deterministic computation, so a
// response computed for one can be served for the other byte-identically —
// the soundness argument behind hsfqd's digest-keyed cache.
func JobKey(c simconfig.Config, seed uint64) string {
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("sweep: marshaling config: %v", err)) // plain data; cannot fail
	}
	h := sha256.New()
	h.Write(b)
	fmt.Fprintf(h, "#seed=%d", seed)
	return hex.EncodeToString(h.Sum(nil))
}

// SweepKey is JobKey for a whole sweep spec: the content address of the
// spec's canonical JSON. Axis values are json.RawMessage, so the bytes the
// client sent participate verbatim.
func SweepKey(spec Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("sweep: marshaling spec: %v", err))
	}
	h := sha256.New()
	h.Write([]byte("sweep#"))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// Metrics extracts the per-job scalar metrics that Run aggregates across
// seed replications.
func Metrics(s *simconfig.Simulation) map[string]float64 {
	n := s.Machine.NumCores()
	size := 5 + 2*len(s.Threads) + len(s.Periodics) + len(s.Decoders)
	if n > 1 {
		size += 1 + 3*n
	}
	m := make(map[string]float64, size) // sized once: no growth garbage per job
	st := s.Machine.Stats()
	m["work_total"] = float64(st.Work)
	m["dispatches"] = float64(st.Dispatches)
	m["preemptions"] = float64(st.Preemptions)
	m["idle_ns"] = float64(st.Idle)
	m["stolen_ns"] = float64(st.Stolen)
	if n > 1 {
		m["migrations"] = float64(st.Migrations)
		span := float64(s.Config.Horizon.Time())
		for c := 0; c < n; c++ {
			cs := s.Machine.CoreStats(c)
			m[fmt.Sprintf("core%d:work", c)] = float64(cs.Work)
			m[fmt.Sprintf("core%d:idle_ns", c)] = float64(cs.Idle)
			if span > 0 {
				m[fmt.Sprintf("core%d:util", c)] = 1 - float64(cs.Idle)/span
			}
		}
	}
	total := float64(st.Work)
	for _, th := range s.Threads {
		m["work:"+th.Name] = float64(th.Done)
		if total > 0 {
			m["share:"+th.Name] = float64(th.Done) / total
		}
	}
	horizon := s.Config.Horizon.Time()
	for name, p := range s.Periodics {
		m["missed:"+name] = float64(p.MissedDeadlines())
	}
	for name, d := range s.Decoders {
		m["frames:"+name] = float64(d.FramesDecoded(horizon))
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
