package sched

import "fmt"

// WeightSetter is implemented by schedulers whose bookkeeping depends on
// thread weights, so a weight can be changed safely while the thread is
// runnable. The paper's Fig. 11 experiment changes thread weights at run
// time through exactly this path.
type WeightSetter interface {
	SetWeight(t *Thread, weight float64)
}

// SetWeight implements WeightSetter for SFQ. Tags already accumulated are
// not rewritten: service consumed before the change was accounted at the
// old rate, service after it accrues at the new rate.
func (s *SFQ) SetWeight(t *Thread, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("sfq: SetWeight(%v) with non-positive weight %v", t, weight))
	}
	if e := s.entries.Get(t); e != nil && e.Queued() {
		s.total += weight - t.Weight
	}
	t.Weight = weight
}

// SetWeight implements WeightSetter for Lottery.
func (l *Lottery) SetWeight(t *Thread, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("lottery: SetWeight(%v) with non-positive weight %v", t, weight))
	}
	if l.queued(t) {
		l.total += weight - t.Weight
	}
	t.Weight = weight
}

// SetWeight implements WeightSetter for Stride.
func (s *Stride) SetWeight(t *Thread, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("stride: SetWeight(%v) with non-positive weight %v", t, weight))
	}
	if e := s.entries.Get(t); e != nil && e.Queued() {
		s.total += weight - t.Weight
	}
	t.Weight = weight
}

// SetWeight implements WeightSetter for EEVDF.
func (s *EEVDF) SetWeight(t *Thread, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("eevdf: SetWeight(%v) with non-positive weight %v", t, weight))
	}
	if e := s.entries.Get(t); e != nil && e.Queued() {
		s.total += weight - t.Weight
	}
	t.Weight = weight
}

// Donation records a weight transfer made to avoid priority inversion, so
// it can be revoked precisely even if weights change in between.
type Donation struct {
	to     *Thread
	amount float64
}

// Donate transfers from's weight to to, the paper's §4 remedy for priority
// inversion under an SFQ leaf: "priority inversion can be avoided by
// transferring the weight of the blocked thread to the thread that is
// blocking it. Such a transfer will ensure that the blocking thread will
// have a weight ... at least as large as the weight of the blocked
// thread." The donor is typically blocked; its nominal weight is
// unchanged and its own tags stop advancing while it sleeps.
func (s *SFQ) Donate(from, to *Thread) Donation {
	if from == nil || to == nil || from == to {
		panic("sfq: bad donation")
	}
	amount := from.Weight
	s.donated.Put(to, s.donated.Get(to)+amount)
	if e := s.entries.Get(to); e != nil && e.Queued() {
		s.total += amount
	}
	return Donation{to: to, amount: amount}
}

// Revoke undoes a donation, typically when the lock holder releases the
// resource the donor was waiting for.
func (s *SFQ) Revoke(d Donation) {
	if d.to == nil {
		panic("sfq: revoke of zero donation")
	}
	cur := s.donated.Get(d.to)
	if cur < d.amount {
		panic(fmt.Sprintf("sfq: revoking %v from %v which only holds %v", d.amount, d.to, cur))
	}
	if cur == d.amount {
		s.donated.Delete(d.to)
	} else {
		s.donated.Put(d.to, cur-d.amount)
	}
	if e := s.entries.Get(d.to); e != nil && e.Queued() {
		s.total -= d.amount
	}
}

// EffectiveWeight returns the weight SFQ charges t at: its own weight plus
// any donations it currently holds. Donations exist only while a priority
// inversion is being resolved, so the common case skips the lookup
// entirely.
func (s *SFQ) EffectiveWeight(t *Thread) float64 {
	if s.donated.Len() == 0 {
		return t.Weight
	}
	return t.Weight + s.donated.Get(t)
}
