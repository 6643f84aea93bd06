package cpu

import (
	"fmt"

	"hsfq/internal/sim"
)

// InterruptSource generates hardware-interrupt arrivals. Interrupts are
// serviced at the highest priority and steal cycles from whatever thread
// is running, which is exactly why the paper models the effective CPU as a
// Fluctuation Constrained server (§3, property 3): "In most operating
// systems processing of hardware interrupts occurs at the highest
// priority. Consequently, the effective bandwidth of CPU fluctuates over
// time."
type InterruptSource interface {
	// Next returns the arrival time (>= now) and service duration of the
	// next interrupt, or ok=false if the source is exhausted.
	Next(now sim.Time) (at, service sim.Time, ok bool)
}

// PeriodicInterrupts models a fixed-rate source such as the clock tick:
// one interrupt every Period taking Service to handle, starting at Offset.
type PeriodicInterrupts struct {
	Period  sim.Time
	Service sim.Time
	Offset  sim.Time

	next sim.Time
	init bool
}

// Next implements InterruptSource.
func (p *PeriodicInterrupts) Next(now sim.Time) (sim.Time, sim.Time, bool) {
	if p.Period <= 0 || p.Service < 0 {
		panic("cpu: periodic interrupt source with non-positive period or negative service")
	}
	if !p.init {
		p.next = p.Offset
		p.init = true
	}
	for p.next < now {
		p.next += p.Period
	}
	at := p.next
	p.next += p.Period
	return at, p.Service, true
}

// SaveState implements Stater.
func (p *PeriodicInterrupts) SaveState(e *sim.Enc) {
	e.Time(p.next)
	e.Bool(p.init)
}

// LoadState implements Stater.
func (p *PeriodicInterrupts) LoadState(d *sim.Dec) error {
	p.next = d.Time()
	p.init = d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if p.init && !onGrid(p.next, p.Offset, p.Period) {
		return fmt.Errorf("cpu: periodic source's next arrival %v is not on its grid %v + k*%v", p.next, p.Offset, p.Period)
	}
	return nil
}

// onGrid reports whether t is offset + k*period for some k >= 0: the only
// instants a periodic or burst source's saved position can hold. Next
// walks a position below now forward one period per step, so a far-past
// position from a hostile checkpoint would spin or flood the run.
func onGrid(t, offset, period sim.Time) bool {
	return period > 0 && t >= offset && (t-offset)%period == 0
}

// PoissonInterrupts models an irregular source (network, disk) with
// exponentially distributed inter-arrival times of mean 1/RatePerSec and
// exponentially distributed service times of mean ServiceMean, optionally
// truncated at ServiceCap. The stream is deterministic given the Rand.
type PoissonInterrupts struct {
	RatePerSec  float64
	ServiceMean sim.Time
	ServiceCap  sim.Time
	Rand        *sim.Rand
}

// Next implements InterruptSource.
func (p *PoissonInterrupts) Next(now sim.Time) (sim.Time, sim.Time, bool) {
	if p.RatePerSec <= 0 || p.ServiceMean <= 0 || p.Rand == nil {
		panic("cpu: poisson interrupt source misconfigured")
	}
	gap := sim.Time(p.Rand.ExpFloat64() / p.RatePerSec * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	svc := sim.Time(p.Rand.ExpFloat64() * float64(p.ServiceMean))
	if svc < 1 {
		svc = 1
	}
	if p.ServiceCap > 0 && svc > p.ServiceCap {
		svc = p.ServiceCap
	}
	return now + gap, svc, true
}

// SaveState implements Stater. The RNG state is the source's whole
// mutable state: without it a resumed run would draw a different arrival
// stream and diverge from the uninterrupted one.
func (p *PoissonInterrupts) SaveState(e *sim.Enc) {
	e.Bool(p.Rand != nil)
	if p.Rand != nil {
		e.U64(p.Rand.State())
	}
}

// LoadState implements Stater.
func (p *PoissonInterrupts) LoadState(d *sim.Dec) error {
	if d.Bool() {
		st := d.U64()
		if d.Err() == nil {
			if p.Rand == nil {
				return fmt.Errorf("cpu: checkpoint carries RNG state for a source without one")
			}
			p.Rand.SetState(st)
		}
	}
	return d.Err()
}

// BurstInterrupts models a source that delivers Count back-to-back
// interrupts of the given Service length every Period — the worst case for
// the FC burstiness parameter.
type BurstInterrupts struct {
	Period  sim.Time
	Count   int
	Service sim.Time
	Offset  sim.Time

	burstStart sim.Time
	inBurst    int
	init       bool
}

// Next implements InterruptSource.
func (b *BurstInterrupts) Next(now sim.Time) (sim.Time, sim.Time, bool) {
	if b.Period <= 0 || b.Count <= 0 || b.Service <= 0 {
		panic("cpu: burst interrupt source misconfigured")
	}
	if !b.init {
		b.burstStart = b.Offset
		b.init = true
	}
	at := b.burstStart + sim.Time(b.inBurst)*b.Service
	b.inBurst++
	if b.inBurst >= b.Count {
		b.inBurst = 0
		b.burstStart += b.Period
	}
	if at < now {
		at = now
	}
	return at, b.Service, true
}

// SaveState implements Stater.
func (b *BurstInterrupts) SaveState(e *sim.Enc) {
	e.Time(b.burstStart)
	e.Int(b.inBurst)
	e.Bool(b.init)
}

// LoadState implements Stater.
func (b *BurstInterrupts) LoadState(d *sim.Dec) error {
	b.burstStart = d.Time()
	b.inBurst = d.Int()
	b.init = d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if b.inBurst < 0 || (b.Count > 0 && b.inBurst >= b.Count) {
		return fmt.Errorf("cpu: burst position %d out of range", b.inBurst)
	}
	if b.init && !onGrid(b.burstStart, b.Offset, b.Period) {
		return fmt.Errorf("cpu: burst start %v is not on its grid %v + k*%v", b.burstStart, b.Offset, b.Period)
	}
	return nil
}
