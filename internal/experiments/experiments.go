// Package experiments contains one driver per figure in the paper's
// evaluation (§5) plus the ablations listed in DESIGN.md. Each driver
// rebuilds the experiment's scenario on the simulated machine, renders the
// same rows/series the paper plots, and self-checks the figure's *shape*
// (who wins, by what ratio, where the bounds lie) — absolute SPARCstation
// numbers are not reproducible and not attempted.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"hsfq/internal/core"
	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/workload"
)

// Options parameterize a run.
type Options struct {
	// Seed drives every random stream of the experiment; the same seed
	// reproduces the run bit for bit.
	Seed uint64
	// Plot adds crude ASCII plots of the figure's series to the output.
	Plot bool
}

// DefaultOptions is used by tests and the -all command path.
func DefaultOptions() Options { return Options{Seed: 42} }

// Check is one shape assertion of an experiment.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Result is the outcome of an experiment run.
type Result struct {
	ID     string
	Title  string
	Checks []Check
	out    strings.Builder
}

// Output returns the rendered tables/series.
func (r *Result) Output() string { return r.out.String() }

// Printf appends to the experiment's rendered output.
func (r *Result) Printf(format string, args ...any) {
	fmt.Fprintf(&r.out, format, args...)
}

// Check records a shape assertion.
func (r *Result) Check(pass bool, name, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// Passed reports whether every check passed.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Digest returns the hex SHA-256 of the experiment's rendered output and
// check table — the unit of determinism for CI and sweep comparisons: two
// runs at the same seed must digest identically.
func (r *Result) Digest() string {
	sum := sha256.Sum256([]byte(r.Output() + r.Summary()))
	return hex.EncodeToString(sum[:])
}

// Summary renders the checks as a table footer.
func (r *Result) Summary() string {
	var b strings.Builder
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %-32s %s\n", mark, c.Name, c.Detail)
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(opt Options) *Result

type entry struct {
	title string
	run   Runner
}

var registry = map[string]entry{}

func register(id, title string, run Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = entry{title: title, run: run}
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the registered title of an experiment.
func Title(id string) (string, bool) {
	e, ok := registry[id]
	return e.title, ok
}

// Run executes the experiment with the given id.
func Run(id string, opt Options) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	r := e.run(opt)
	r.ID = id
	r.Title = e.title
	return r, nil
}

// ---- shared scenario builders ----

// rate is the simulated CPU speed used by all experiments: 100 MIPS, the
// class of machine the paper evaluated on.
const rate = cpu.DefaultRate

// dhry is the standard benchmark configuration: one loop costs 100 us of
// CPU, and every ~509 loops the thread takes a 2 ms involuntary sleep
// (page-in); the prime spacing staggers faults across threads.
func dhry(phase int) workload.Dhrystone {
	return workload.Dhrystone{
		LoopWork:   sched.Work(rate / 10000), // 100 us
		FaultEvery: 509,
		FaultSleep: 2 * sim.Millisecond,
		Phase:      phase * 97,
	}
}

// dhryPure is the benchmark without fault sleeps, for experiments where
// blocking would only add noise (the Fig. 7 overhead measurements).
func dhryPure() workload.Dhrystone {
	return workload.Dhrystone{LoopWork: sched.Work(rate / 10000)}
}

// fig6 builds the scheduling structure of the paper's Fig. 6, used by the
// evaluation: root with children SFQ-1, SFQ-2 (SFQ leaves) and SVR4 (the
// modified SVR4 leaf scheduler), with the given weights.
type fig6 struct {
	S        *core.Structure
	SFQ1     core.NodeID
	SFQ2     core.NodeID
	SVR4     core.NodeID
	SFQ1Leaf *sched.SFQ
	SFQ2Leaf *sched.SFQ
	SVR4Leaf *sched.SVR4
}

func buildFig6(w1, w2, wsvr float64, quantum sim.Time) fig6 {
	s := core.NewStructure()
	l1 := sched.NewSFQ(quantum)
	l2 := sched.NewSFQ(quantum)
	lsvr := sched.NewSVR4(nil, int64(rate), 25*sim.Millisecond)
	id1, err := s.Mknod("SFQ-1", core.RootID, w1, l1)
	must(err)
	id2, err := s.Mknod("SFQ-2", core.RootID, w2, l2)
	must(err)
	id3, err := s.Mknod("SVR4", core.RootID, wsvr, lsvr)
	must(err)
	return fig6{S: s, SFQ1: id1, SFQ2: id2, SVR4: id3, SFQ1Leaf: l1, SFQ2Leaf: l2, SVR4Leaf: lsvr}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// attach creates a thread, attaches it to a leaf of the structure, and
// registers it with the machine.
func attach(m *cpu.Machine, s *core.Structure, leaf core.NodeID, id int, name string, weight float64, prog cpu.Program) *sched.Thread {
	t := sched.NewThread(id, name, weight)
	must(s.Attach(t, leaf))
	m.Add(t, prog, 0)
	return t
}

// ratioStr formats a/b.
func ratioStr(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.3f", a/b)
}

// within reports |got-want| <= tol*want.
func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol*want
}
