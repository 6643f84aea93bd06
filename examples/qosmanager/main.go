// Qosmanager: the Fig. 4 control loop in action. A QoS manager admits
// hard real-time, soft real-time and best-effort applications with
// class-appropriate admission control, refuses what would break
// guarantees, and grows the soft class when a video conference starts —
// the paper's own motivating policy for dynamic bandwidth allocation.
//
//	go run ./examples/qosmanager
package main

import (
	"fmt"
	"log"

	"hsfq/internal/core"
	"hsfq/internal/cpu"
	"hsfq/internal/qosmgr"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/workload"
)

func main() {
	structure := core.NewStructure()
	cfg := qosmgr.DefaultConfig(cpu.DefaultRate)
	mgr, err := qosmgr.New(structure, cfg)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.NewEngine()
	machine := cpu.NewMachine(eng, cpu.DefaultRate, structure)
	rng := sim.NewRand(99)
	ms := func(v int64) sched.Work { return cpu.DefaultRate.WorkFor(sim.Time(v) * sim.Millisecond) }

	// A hard real-time sensor task: deterministic admission control.
	sensorProg := &workload.Periodic{Period: 50 * sim.Millisecond, Cost: ms(3)}
	sensor := sched.NewThread(1, "sensor", 1)
	report(mgr.AdmitHard(sensor, ms(3), 50*sim.Millisecond), "hard: sensor (3ms/50ms)")
	machine.Add(sensor, sensorProg, 0)

	// A second hard task that would overflow the class: refused.
	greedy := sched.NewThread(2, "greedy", 1)
	report(mgr.AdmitHard(greedy, ms(40), 100*sim.Millisecond), "hard: greedy (40ms/100ms)")

	// Two soft decoders fit under the statistical (overbooked) test.
	for i := 0; i < 2; i++ {
		d := sched.NewThread(3+i, fmt.Sprintf("decoder%d", i), 1)
		report(mgr.AdmitSoft(d, ms(15), 100*sim.Millisecond), "soft: decoder (15ms/100ms mean)")
		gen := workload.DefaultMPEG(int64(cpu.DefaultRate), rng.Fork())
		machine.Add(d, gen.Decoder(100000, true), 0)
	}

	// Best effort is never refused.
	for i := 0; i < 3; i++ {
		b := sched.NewThread(10+i, "shell", 1)
		report(mgr.AdmitBestEffort(b, "alice"), "best-effort: shell")
		machine.Add(b, workload.CPUBound(1_000_000), 0)
	}

	// A video conference starts: 25 MIPS of new soft demand does not fit
	// in the current soft budget, so the manager grows the class, keeping
	// best effort at no less than 25% of the machine.
	conf := sched.NewThread(20, "conference", 2)
	err = mgr.TryAdmitSoftGrowing(conf, ms(25), 100*sim.Millisecond, 0.25)
	report(err, "soft: conference (25ms/100ms mean), growing the class")
	if err == nil {
		gen := workload.DefaultMPEG(int64(cpu.DefaultRate), rng.Fork())
		machine.Add(conf, gen.Decoder(100000, true), 0)
	}

	for _, c := range []qosmgr.Class{qosmgr.HardRealTime, qosmgr.SoftRealTime, qosmgr.BestEffort} {
		bw, _ := structure.Bandwidth(mgr.ClassNode(c))
		fmt.Printf("  %-15s guaranteed %.1f%% of the CPU\n", c, 100*bw)
	}

	machine.Run(30 * sim.Second)
	machine.Flush()

	fmt.Println("\nafter 30 simulated seconds:")
	fmt.Printf("  sensor: %d rounds, %d missed deadlines (min slack %v)\n",
		len(sensorProg.Slack), sensorProg.MissedDeadlines(), sensorProg.MinSlack())
	fmt.Printf("  conference work: %d instructions (%.1f%% of CPU)\n",
		conf.Done, 100*float64(conf.Done)/float64(machine.Stats().Work))
	fmt.Print(structure.String())
}

func report(err error, what string) {
	if err != nil {
		fmt.Printf("DENIED  %-52s %v\n", what, err)
		return
	}
	fmt.Printf("ADMIT   %s\n", what)
}
