// Package sweep runs batches of deterministic simulations: it expands a
// parameter-sweep specification over a base simconfig scenario into a grid
// of self-contained jobs, executes them across a bounded pool of worker
// goroutines, digests each job's observable outcome, and aggregates seed
// replications into mean/p50/p99 statistics.
//
// The paper's evaluation is exactly such a batch — eleven figures plus ten
// ablations, each one deterministic run at one parameter point — and
// scheduler studies at large sweep algorithms x workloads the same way.
// Every job owns private sim/cpu/core instances, so parallelism lives
// entirely outside the simulation and cannot perturb it; the Verify option
// turns that claim into a checked property by running every job twice and
// failing on any digest mismatch.
//
// A sweep spec is JSON:
//
//	{
//	  "name": "quantum-vs-leaf",
//	  "seeds": 3,
//	  "base": { ... any simconfig.Config ... },
//	  "axes": [
//	    {"param": "quantum", "target": "/soft", "values": ["5ms", "10ms"]},
//	    {"param": "leaf", "target": "/soft", "values": ["sfq", "stride"]},
//	    {"param": "mips", "values": [50, 100]}
//	  ]
//	}
//
// The grid is the cartesian product of the axes (here 2x2x2 = 8 points),
// each point replicated at `seeds` consecutive seeds (24 jobs).
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/simconfig"
)

// Axis parameters. Duration-valued params accept simconfig durations
// ("10ms" or bare nanoseconds); numeric params accept JSON numbers; "leaf"
// accepts any registered scheduler name (sched.Names()).
const (
	ParamMIPS             = "mips"              // Config.RateMIPS (numbers)
	ParamHorizon          = "horizon"           // Config.Horizon (durations)
	ParamLeaf             = "leaf"              // node target's leaf kind (strings)
	ParamQuantum          = "quantum"           // node target's quantum; all leaves when target is "" (durations)
	ParamWeight           = "weight"            // node target's weight (numbers)
	ParamThreadWeight     = "thread_weight"     // thread target's weight (numbers)
	ParamInterruptPeriod  = "interrupt_period"  // Interrupts[index].Period (durations)
	ParamInterruptService = "interrupt_service" // Interrupts[index].Service (durations)
	ParamInterruptRate    = "interrupt_rate"    // Interrupts[index].RatePerSec (numbers)
	ParamCores            = "cores"             // Config.Cores (numbers)
	ParamPolicy           = "policy"            // Config.Policy (strings)
	ParamSwitchCost       = "switch_cost"       // Config.SwitchCost (durations)
	ParamMigrationCost    = "migration_cost"    // Config.MigrationCost (durations)
	ParamLevels           = "levels"            // node target's mlfq level count (numbers)
	ParamAging            = "aging"             // node target's mlfq aging bound (durations)
)

// Axis is one swept parameter and the values it takes.
type Axis struct {
	// Param is one of the Param* constants.
	Param string `json:"param"`
	// Target selects the node path (leaf, quantum, weight) or thread
	// name (thread_weight) the axis applies to.
	Target string `json:"target,omitempty"`
	// Index selects which interrupt source an interrupt_* axis applies to.
	Index int `json:"index,omitempty"`
	// Values are the grid points along this axis.
	Values []json.RawMessage `json:"values"`
}

// Spec is a parsed sweep specification.
type Spec struct {
	// Name labels the sweep in reports.
	Name string `json:"name"`
	// Base is the scenario every job starts from.
	Base simconfig.Config `json:"base"`
	// Axes span the parameter grid; empty means a single point (the base).
	Axes []Axis `json:"axes"`
	// Seeds is the number of seed replications per grid point; 0 means 1.
	Seeds int `json:"seeds"`
	// BaseSeed is the seed of replication 0 (replication r runs at
	// BaseSeed+r); 0 means the base config's seed, or 1 if that is 0 too.
	BaseSeed uint64 `json:"base_seed"`
}

// ParseSpec decodes a JSON sweep spec.
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: %w", err)
	}
	return s, nil
}

// Job is one self-contained simulation of the sweep: a fully applied
// config plus the seed to instantiate it at.
type Job struct {
	// ID numbers jobs densely in grid order; results are reported in ID
	// order regardless of execution order.
	ID int `json:"id"`
	// Point maps each axis key ("param" or "param@target") to the value
	// label this job runs at.
	Point map[string]string `json:"point"`
	// Rep is the replication index in [0, Seeds).
	Rep int `json:"rep"`
	// Seed instantiates the config.
	Seed uint64 `json:"seed"`

	// Config is the base with this point's values applied. Runners must
	// not mutate it: replications of the same point share the clone.
	Config simconfig.Config `json:"-"`
}

// choice is one concrete value along one axis.
type choice struct {
	key   string // axis key in Job.Point
	label string // value label in Job.Point
	set   func(*simconfig.Config) error
}

// Expand turns a spec into its full job list: the cartesian product of
// the axes, times the seed replications. Every job's config is validated,
// so a bad grid fails here rather than mid-run.
func Expand(spec Spec) ([]Job, error) {
	if len(spec.Base.Nodes) == 0 {
		return nil, fmt.Errorf("sweep: spec has no base scenario (base.nodes is empty)")
	}
	seeds := spec.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	baseSeed := spec.BaseSeed
	if baseSeed == 0 {
		baseSeed = spec.Base.Seed
	}
	if baseSeed == 0 {
		baseSeed = 1
	}

	axes := make([][]choice, len(spec.Axes))
	seen := map[string]bool{}
	points := 1
	for i, ax := range spec.Axes {
		cs, err := expandAxis(ax)
		if err != nil {
			return nil, err
		}
		if seen[cs[0].key] {
			return nil, fmt.Errorf("sweep: duplicate axis %q", cs[0].key)
		}
		seen[cs[0].key] = true
		axes[i] = cs
		points *= len(cs)
	}

	jobs := make([]Job, 0, points*seeds)
	idx := make([]int, len(axes)) // odometer over the grid
	for p := 0; p < points; p++ {
		point := make(map[string]string, len(axes))
		cfg := cloneConfig(spec.Base)
		for a, cs := range axes {
			c := cs[idx[a]]
			point[c.key] = c.label
			if err := c.set(&cfg); err != nil {
				return nil, fmt.Errorf("sweep: point %v: %w", point, err)
			}
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %v: %w", point, err)
		}
		for rep := 0; rep < seeds; rep++ {
			jobs = append(jobs, Job{
				ID:     len(jobs),
				Point:  point,
				Rep:    rep,
				Seed:   baseSeed + uint64(rep),
				Config: cfg,
			})
		}
		// Advance the odometer, last axis fastest.
		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(axes[a]) {
				break
			}
			idx[a] = 0
		}
	}
	return jobs, nil
}

func expandAxis(ax Axis) ([]choice, error) {
	if len(ax.Values) == 0 {
		return nil, fmt.Errorf("sweep: axis %q has no values", ax.Param)
	}
	key := ax.Param
	if ax.Target != "" {
		key += "@" + ax.Target
	}
	cs := make([]choice, 0, len(ax.Values))
	for _, raw := range ax.Values {
		c, err := makeChoice(ax, key, raw)
		if err != nil {
			return nil, fmt.Errorf("sweep: axis %q: %w", key, err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func makeChoice(ax Axis, key string, raw json.RawMessage) (choice, error) {
	number := func() (float64, error) {
		var n float64
		if err := json.Unmarshal(raw, &n); err != nil {
			return 0, fmt.Errorf("value %s is not a number", raw)
		}
		return n, nil
	}
	duration := func() (simconfig.Duration, error) {
		var d simconfig.Duration
		if err := json.Unmarshal(raw, &d); err != nil {
			return 0, fmt.Errorf("value %s is not a duration", raw)
		}
		return d, nil
	}
	switch ax.Param {
	case ParamMIPS:
		n, err := number()
		if err != nil {
			return choice{}, err
		}
		return choice{key, fmtNum(n), func(c *simconfig.Config) error {
			c.RateMIPS = int64(n)
			return nil
		}}, nil
	case ParamHorizon:
		d, err := duration()
		if err != nil {
			return choice{}, err
		}
		return choice{key, fmtDur(d), func(c *simconfig.Config) error {
			c.Horizon = d
			return nil
		}}, nil
	case ParamLeaf:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return choice{}, fmt.Errorf("value %s is not a string", raw)
		}
		if !sched.Known(s) {
			return choice{}, fmt.Errorf("unknown leaf scheduler %q (have %v)", s, sched.Names())
		}
		target := ax.Target
		return choice{key, s, func(c *simconfig.Config) error {
			nc, err := findNode(c, target)
			if err != nil {
				return err
			}
			nc.Leaf = s
			return nil
		}}, nil
	case ParamQuantum:
		d, err := duration()
		if err != nil {
			return choice{}, err
		}
		target := ax.Target
		return choice{key, fmtDur(d), func(c *simconfig.Config) error {
			if target == "" { // all leaves
				for i := range c.Nodes {
					if c.Nodes[i].Leaf != "" {
						c.Nodes[i].Quantum = d
					}
				}
				return nil
			}
			nc, err := findNode(c, target)
			if err != nil {
				return err
			}
			nc.Quantum = d
			return nil
		}}, nil
	case ParamWeight:
		n, err := number()
		if err != nil {
			return choice{}, err
		}
		target := ax.Target
		return choice{key, fmtNum(n), func(c *simconfig.Config) error {
			nc, err := findNode(c, target)
			if err != nil {
				return err
			}
			nc.Weight = n
			return nil
		}}, nil
	case ParamThreadWeight:
		n, err := number()
		if err != nil {
			return choice{}, err
		}
		target := ax.Target
		return choice{key, fmtNum(n), func(c *simconfig.Config) error {
			for i := range c.Threads {
				if c.Threads[i].Name == target {
					c.Threads[i].Weight = n
					return nil
				}
			}
			return fmt.Errorf("no thread %q", target)
		}}, nil
	case ParamInterruptPeriod, ParamInterruptService:
		d, err := duration()
		if err != nil {
			return choice{}, err
		}
		param, index := ax.Param, ax.Index
		return choice{key, fmtDur(d), func(c *simconfig.Config) error {
			if index < 0 || index >= len(c.Interrupts) {
				return fmt.Errorf("no interrupt source %d", index)
			}
			if param == ParamInterruptPeriod {
				c.Interrupts[index].Period = d
			} else {
				c.Interrupts[index].Service = d
			}
			return nil
		}}, nil
	case ParamInterruptRate:
		n, err := number()
		if err != nil {
			return choice{}, err
		}
		index := ax.Index
		return choice{key, fmtNum(n), func(c *simconfig.Config) error {
			if index < 0 || index >= len(c.Interrupts) {
				return fmt.Errorf("no interrupt source %d", index)
			}
			c.Interrupts[index].RatePerSec = n
			return nil
		}}, nil
	case ParamCores:
		n, err := number()
		if err != nil {
			return choice{}, err
		}
		return choice{key, fmtNum(n), func(c *simconfig.Config) error {
			c.Cores = int(n)
			return nil
		}}, nil
	case ParamPolicy:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return choice{}, fmt.Errorf("value %s is not a string", raw)
		}
		if _, err := cpu.ParsePolicy(s); err != nil {
			return choice{}, err
		}
		return choice{key, s, func(c *simconfig.Config) error {
			c.Policy = s
			return nil
		}}, nil
	case ParamLevels:
		n, err := number()
		if err != nil {
			return choice{}, err
		}
		target := ax.Target
		return choice{key, fmtNum(n), func(c *simconfig.Config) error {
			nc, err := findNode(c, target)
			if err != nil {
				return err
			}
			nc.Levels = int(n)
			return nil
		}}, nil
	case ParamAging:
		d, err := duration()
		if err != nil {
			return choice{}, err
		}
		target := ax.Target
		return choice{key, fmtDur(d), func(c *simconfig.Config) error {
			nc, err := findNode(c, target)
			if err != nil {
				return err
			}
			nc.Aging = d
			return nil
		}}, nil
	case ParamSwitchCost, ParamMigrationCost:
		d, err := duration()
		if err != nil {
			return choice{}, err
		}
		param := ax.Param
		return choice{key, fmtDur(d), func(c *simconfig.Config) error {
			if param == ParamSwitchCost {
				c.SwitchCost = d
			} else {
				c.MigrationCost = d
			}
			return nil
		}}, nil
	default:
		return choice{}, fmt.Errorf("unknown param %q", ax.Param)
	}
}

func findNode(c *simconfig.Config, path string) (*simconfig.NodeConfig, error) {
	for i := range c.Nodes {
		if c.Nodes[i].Path == path {
			return &c.Nodes[i], nil
		}
	}
	return nil, fmt.Errorf("no node %q", path)
}

// cloneConfig deep-copies the slices (and the one pointer field) so axis
// setters never write through to the spec's base.
func cloneConfig(c simconfig.Config) simconfig.Config {
	c.Nodes = append([]simconfig.NodeConfig(nil), c.Nodes...)
	c.Threads = append([]simconfig.ThreadConfig(nil), c.Threads...)
	c.Interrupts = append([]simconfig.InterruptConfig(nil), c.Interrupts...)
	for i, tc := range c.Threads {
		if tc.RTPriority != nil {
			v := *tc.RTPriority
			c.Threads[i].RTPriority = &v
		}
		if tc.Affinity != nil {
			v := *tc.Affinity
			c.Threads[i].Affinity = &v
		}
	}
	return c
}

func fmtNum(n float64) string { return strconv.FormatFloat(n, 'g', -1, 64) }

func fmtDur(d simconfig.Duration) string { return time.Duration(d.Time()).String() }
