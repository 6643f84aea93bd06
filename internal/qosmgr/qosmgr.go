// Package qosmgr implements the Quality of Service manager the paper
// envisions in front of the hierarchical scheduler (§4, Fig. 4): it
// creates the class partitions, runs class-dependent admission control —
// deterministic for hard real-time, statistical for soft real-time, none
// for best effort — places applications into leaves, and dynamically
// adjusts class weights as the mix of applications changes.
package qosmgr

import (
	"errors"
	"fmt"

	"hsfq/internal/core"
	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Class identifies the three top-level application classes of the paper's
// example structure (Fig. 2).
type Class int

// Application classes.
const (
	HardRealTime Class = iota
	SoftRealTime
	BestEffort
)

func (c Class) String() string {
	switch c {
	case HardRealTime:
		return "hard-real-time"
	case SoftRealTime:
		return "soft-real-time"
	case BestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Errors returned by admission control.
var (
	ErrAdmission = errors.New("qosmgr: admission denied")
	ErrUnknown   = errors.New("qosmgr: unknown thread")
)

// Config parameterizes the manager.
type Config struct {
	// Rate is the CPU speed the reservations are made against.
	Rate cpu.Rate
	// HardWeight, SoftWeight, BestEffortWeight partition the root. The
	// paper's Fig. 2 example uses 1:3:6.
	HardWeight, SoftWeight, BestEffortWeight float64
	// Overbook is the factor by which the soft real-time class may be
	// oversubscribed on *mean* demand (§1: "to efficiently utilize CPU, an
	// operating system will be required to over-book CPU bandwidth").
	// 1.0 means no overbooking; 1.5 admits 50% more mean demand than the
	// class's guaranteed bandwidth.
	Overbook float64
	// Quantum is the leaf scheduling quantum.
	Quantum sim.Time
	// HardPolicy selects the hard class's scheduler and admission test:
	// "edf" (default; utilization bound, exact for EDF) or "rm" (Rate
	// Monotonic with exact response-time analysis). Both tests run
	// against the class's guaranteed rate — the fluid approximation —
	// with a safety margin of two quanta on RM response times to absorb
	// the hierarchy's Eq. 8 scheduling delay.
	HardPolicy string
}

// DefaultConfig mirrors the paper's example: weights 1:3:6, 30%
// overbooking for soft real-time, 10 ms quanta.
func DefaultConfig(rate cpu.Rate) Config {
	return Config{
		Rate:             rate,
		HardWeight:       1,
		SoftWeight:       3,
		BestEffortWeight: 6,
		Overbook:         1.3,
		Quantum:          10 * sim.Millisecond,
	}
}

// reservation records an admitted real-time task's demand.
type reservation struct {
	cost   sched.Work
	period sim.Time
}

// Manager is the QoS manager.
type Manager struct {
	cfg       Config
	structure *core.Structure
	hardID    core.NodeID
	softID    core.NodeID
	beID      core.NodeID
	hardLeaf  sched.Scheduler
	users     map[string]core.NodeID
	hardRes   map[*sched.Thread]reservation
	softRes   map[*sched.Thread]reservation
}

// New builds the class partitions inside structure and returns the
// manager. The structure must not already contain nodes named
// "hard-real-time", "soft-real-time", or "best-effort" at the root.
func New(structure *core.Structure, cfg Config) (*Manager, error) {
	if cfg.Rate <= 0 || cfg.HardWeight <= 0 || cfg.SoftWeight <= 0 || cfg.BestEffortWeight <= 0 {
		return nil, fmt.Errorf("qosmgr: invalid config %+v", cfg)
	}
	if cfg.Overbook < 1 {
		return nil, fmt.Errorf("qosmgr: overbook factor %v below 1", cfg.Overbook)
	}
	var hardLeaf sched.Scheduler
	switch cfg.HardPolicy {
	case "", "edf":
		cfg.HardPolicy = "edf"
		hardLeaf = sched.NewEDF(cfg.Quantum)
	case "rm":
		hardLeaf = sched.NewRM(cfg.Quantum)
	default:
		return nil, fmt.Errorf("qosmgr: unknown hard policy %q", cfg.HardPolicy)
	}
	hardID, err := structure.Mknod("hard-real-time", core.RootID, cfg.HardWeight, hardLeaf)
	if err != nil {
		return nil, err
	}
	softID, err := structure.Mknod("soft-real-time", core.RootID, cfg.SoftWeight, sched.NewSFQ(cfg.Quantum))
	if err != nil {
		return nil, err
	}
	beID, err := structure.Mknod("best-effort", core.RootID, cfg.BestEffortWeight, nil)
	if err != nil {
		return nil, err
	}
	return &Manager{
		cfg:       cfg,
		structure: structure,
		hardID:    hardID,
		softID:    softID,
		beID:      beID,
		hardLeaf:  hardLeaf,
		users:     make(map[string]core.NodeID),
		hardRes:   make(map[*sched.Thread]reservation),
		softRes:   make(map[*sched.Thread]reservation),
	}, nil
}

// Structure returns the managed scheduling structure.
func (m *Manager) Structure() *core.Structure { return m.structure }

// ClassNode returns the node id of a class partition.
func (m *Manager) ClassNode(c Class) core.NodeID {
	switch c {
	case HardRealTime:
		return m.hardID
	case SoftRealTime:
		return m.softID
	default:
		return m.beID
	}
}

// classRate returns the CPU bandwidth (instructions/second) guaranteed to
// a class under the current weights.
func (m *Manager) classRate(id core.NodeID) float64 {
	frac, err := m.structure.Bandwidth(id)
	if err != nil {
		panic(err)
	}
	return frac * float64(m.cfg.Rate)
}

// hardAdmissible runs the configured deterministic admission test with
// the candidate reservation included.
func (m *Manager) hardAdmissible(extra *reservation) error {
	if m.cfg.HardPolicy == "rm" {
		compute, period := m.hardTaskSet(extra)
		margin := 2 * m.cfg.Quantum
		resp, ok := sched.ResponseTimesRM(compute, period)
		if !ok {
			return fmt.Errorf("%w: RM response-time analysis diverged", ErrAdmission)
		}
		for i, r := range resp {
			if r+margin > period[i] {
				return fmt.Errorf("%w: RM response time %v + margin %v exceeds period %v",
					ErrAdmission, r, margin, period[i])
			}
		}
		return nil
	}
	if u := m.hardUtilization(extra); u > 1 {
		return fmt.Errorf("%w: hard class utilization would be %.2f", ErrAdmission, u)
	}
	return nil
}

// hardTaskSet renders the admitted reservations (plus the candidate) as
// compute times at the class's guaranteed rate, for response-time
// analysis.
func (m *Manager) hardTaskSet(extra *reservation) (compute, period []sim.Time) {
	rate := m.classRate(m.hardID)
	add := func(r reservation) {
		c := sim.Time(float64(r.cost) / rate * float64(sim.Second))
		if c < 1 {
			c = 1
		}
		compute = append(compute, c)
		period = append(period, r.period)
	}
	for _, r := range m.hardRes {
		add(r)
	}
	if extra != nil {
		add(*extra)
	}
	return compute, period
}

// hardUtilization returns the demand of admitted hard tasks plus the
// candidate, as a fraction of the hard class's guaranteed rate.
func (m *Manager) hardUtilization(extra *reservation) float64 {
	rate := m.classRate(m.hardID)
	u := 0.0
	add := func(r reservation) {
		u += float64(r.cost) / r.period.Seconds() / rate
	}
	for _, r := range m.hardRes {
		add(r)
	}
	if extra != nil {
		add(*extra)
	}
	return u
}

// softDemand returns the mean demand of admitted soft tasks plus the
// candidate, in instructions/second.
func (m *Manager) softDemand(extra *reservation) float64 {
	d := 0.0
	add := func(r reservation) {
		d += float64(r.cost) / r.period.Seconds()
	}
	for _, r := range m.softRes {
		add(r)
	}
	if extra != nil {
		add(*extra)
	}
	return d
}

// AdmitHard admits a periodic hard real-time task needing cost
// instructions every period, using the deterministic test of the
// configured hard policy against the class's guaranteed bandwidth: the
// EDF utilization bound (u <= 1), or exact RM response-time analysis.
func (m *Manager) AdmitHard(t *sched.Thread, cost sched.Work, period sim.Time) error {
	if cost <= 0 || period <= 0 {
		return fmt.Errorf("qosmgr: invalid hard reservation cost=%d period=%v", cost, period)
	}
	cand := reservation{cost: cost, period: period}
	if err := m.hardAdmissible(&cand); err != nil {
		return err
	}
	t.Period = period
	if err := m.structure.Attach(t, m.hardID); err != nil {
		return err
	}
	m.hardRes[t] = cand
	return nil
}

// AdmitSoft admits a soft real-time task by statistical admission
// control: the sum of *mean* demands may exceed the class's guaranteed
// rate by at most the overbooking factor. Weight is the share the task
// gets within the class.
func (m *Manager) AdmitSoft(t *sched.Thread, meanCost sched.Work, period sim.Time) error {
	if meanCost <= 0 || period <= 0 {
		return fmt.Errorf("qosmgr: invalid soft reservation cost=%d period=%v", meanCost, period)
	}
	cand := reservation{cost: meanCost, period: period}
	budget := m.cfg.Overbook * m.classRate(m.softID)
	if d := m.softDemand(&cand); d > budget {
		return fmt.Errorf("%w: soft class mean demand %.3g would exceed budget %.3g", ErrAdmission, d, budget)
	}
	if err := m.structure.Attach(t, m.softID); err != nil {
		return err
	}
	m.softRes[t] = cand
	return nil
}

// AdmitBestEffort places a task in the named user's best-effort leaf,
// creating the leaf (weight 1, SFQ) on first use. Best effort is never
// denied (§1: "the QoS manager would not deny the request").
func (m *Manager) AdmitBestEffort(t *sched.Thread, user string) error {
	id, ok := m.users[user]
	if !ok {
		var err error
		id, err = m.structure.Mknod(user, m.beID, 1, sched.NewSFQ(m.cfg.Quantum))
		if err != nil {
			return err
		}
		m.users[user] = id
	}
	return m.structure.Attach(t, id)
}

// Release removes a task's reservation and detaches it. The thread must
// be blocked or exited.
func (m *Manager) Release(t *sched.Thread) error {
	if err := m.structure.Detach(t); err != nil {
		return err
	}
	delete(m.hardRes, t)
	delete(m.softRes, t)
	return nil
}

// SetClassWeight changes a class partition's weight, re-validating that
// admitted hard guarantees still hold (a shrink that would break them is
// refused).
func (m *Manager) SetClassWeight(c Class, weight float64) error {
	id := m.ClassNode(c)
	old, err := m.structure.NodeWeightOf(id)
	if err != nil {
		return err
	}
	if err := m.structure.SetNodeWeight(id, weight); err != nil {
		return err
	}
	if err := m.hardAdmissible(nil); err != nil {
		// Roll back: the change would violate hard guarantees.
		if rbErr := m.structure.SetNodeWeight(id, old); rbErr != nil {
			panic(rbErr)
		}
		return fmt.Errorf("weight change rejected: %w", err)
	}
	return nil
}

// GrowSoft implements the paper's motivating policy: "initially soft
// real-time applications may be allocated very small fraction of the CPU,
// but when many video decoders ... are started, the allocation of soft
// real-time class may be increased significantly". It raises the soft
// class weight until the pending reservation fits, while keeping the
// best-effort class at or above minBestEffortShare of the root and hard
// guarantees intact. It returns the weight chosen.
func (m *Manager) GrowSoft(pending reservation, minBestEffortShare float64) (float64, error) {
	if minBestEffortShare < 0 || minBestEffortShare >= 1 {
		return 0, fmt.Errorf("qosmgr: bad best-effort floor %v", minBestEffortShare)
	}
	orig, err := m.structure.NodeWeightOf(m.softID)
	if err != nil {
		return 0, err
	}
	w := orig
	for i := 0; i < 64; i++ {
		budget := m.cfg.Overbook * m.classRate(m.softID)
		if m.softDemand(&pending) <= budget {
			return w, nil
		}
		w *= 1.5
		if err := m.SetClassWeight(SoftRealTime, w); err != nil {
			break
		}
		if frac, err := m.structure.Bandwidth(m.beID); err != nil || frac < minBestEffortShare {
			break
		}
	}
	// Could not satisfy: restore and refuse.
	if err := m.SetClassWeight(SoftRealTime, orig); err != nil {
		panic(err)
	}
	return orig, fmt.Errorf("%w: cannot grow soft class without starving best effort", ErrAdmission)
}

// TryAdmitSoftGrowing admits a soft task, growing the soft class (within
// the best-effort floor) if needed.
func (m *Manager) TryAdmitSoftGrowing(t *sched.Thread, meanCost sched.Work, period sim.Time, minBestEffortShare float64) error {
	if err := m.AdmitSoft(t, meanCost, period); err == nil {
		return nil
	}
	if _, err := m.GrowSoft(reservation{cost: meanCost, period: period}, minBestEffortShare); err != nil {
		return err
	}
	return m.AdmitSoft(t, meanCost, period)
}

// HardLeaf returns the hard class's scheduler (EDF or RM per HardPolicy).
func (m *Manager) HardLeaf() sched.Scheduler { return m.hardLeaf }

// UserLeaf returns the node id of a best-effort user's leaf, if present.
func (m *Manager) UserLeaf(user string) (core.NodeID, bool) {
	id, ok := m.users[user]
	return id, ok
}
