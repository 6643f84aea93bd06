// Package fairqueue implements packet-level fair queuing algorithms over
// flows — SFQ, WFQ, SCFQ, and FQS — together with a server whose service
// rate fluctuates over time. It exists for two purposes:
//
//   - The related-work ablations (DESIGN.md A1/A2): the paper argues SFQ
//     is the right intermediate-node scheduler because, unlike WFQ and
//     FQS, its fairness holds when available bandwidth fluctuates, and its
//     delay to low-throughput flows beats WFQ's. These claims are packet
//     scheduling results from [6]; this package reproduces them directly.
//
//   - Cross-checks: packet SFQ and the CPU-scheduler SFQ in internal/sched
//     must produce identical schedules for identical inputs.
//
// The units mirror the rest of the repository: packet sizes are work
// (instructions), rates are work per second.
package fairqueue

import (
	"fmt"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Packet is one service request from a flow.
type Packet struct {
	Flow   int
	Size   sched.Work
	Arrive sim.Time

	// Outputs, filled by the algorithm and server.
	Start    float64  // start tag (SFQ/FQS/WFQ)
	Finish   float64  // finish tag
	Began    sim.Time // service start in the real server
	Departed sim.Time // service completion in the real server

	q sim.Tagged[*Packet] // queue position: (tag, arrival order)
}

// Algorithm is a work-conserving packet scheduler over a fixed set of
// weighted flows.
type Algorithm interface {
	// Name identifies the algorithm.
	Name() string
	// Arrive stamps and enqueues a packet at time now.
	Arrive(p *Packet, now sim.Time)
	// Dequeue removes and returns the next packet to serve, or nil.
	// begun tells the algorithm service starts now (for virtual time).
	Dequeue(now sim.Time) *Packet
	// Complete informs the algorithm the packet's service finished.
	Complete(p *Packet, now sim.Time)
	// Backlogged returns the number of queued packets.
	Backlogged() int
}

// queue holds an algorithm's backlog in (tag, arrival) order on the
// sim.TagHeap the CPU schedulers use: the tag is the start tag for
// SFQ/FQS and the finish tag for SCFQ/WFQ, and packets with equal tags
// leave in arrival order.
type queue struct {
	heap sim.TagHeap[*Packet]
	seq  uint64
}

func (q *queue) push(p *Packet, tag float64) {
	p.q = sim.Tagged[*Packet]{Tag: tag, Seq: q.seq, Item: p}
	q.seq++
	q.heap.Push(&p.q)
}

// pop removes and returns the packet with the smallest (tag, arrival), or
// nil when the queue is empty.
func (q *queue) pop() *Packet {
	if q.heap.Len() == 0 {
		return nil
	}
	x := q.heap.Min()
	q.heap.Remove(x)
	return x.Item
}

func checkFlow(weights []float64, flow int) {
	if flow < 0 || flow >= len(weights) {
		panic(fmt.Sprintf("fairqueue: flow %d out of range", flow))
	}
}

// SFQ is packet Start-time Fair Queuing: S = max(v, F_flow),
// F = S + size/w, serve in start-tag order; v is the start tag of the
// packet in service (max finish tag while idle). Its fairness is
// independent of server rate fluctuation.
type SFQ struct {
	weights   []float64
	flowF     []float64
	queue     queue
	maxFinish float64
	inService *Packet
}

// NewSFQ returns a packet SFQ over flows with the given weights.
func NewSFQ(weights []float64) *SFQ {
	return &SFQ{weights: weights, flowF: make([]float64, len(weights))}
}

// Name implements Algorithm.
func (s *SFQ) Name() string { return "sfq" }

// VirtualTime returns v(t).
func (s *SFQ) VirtualTime() float64 {
	if s.inService != nil {
		return s.inService.Start
	}
	if s.queue.heap.Len() > 0 {
		return s.queue.heap.Min().Tag
	}
	return s.maxFinish
}

// Arrive implements Algorithm.
func (s *SFQ) Arrive(p *Packet, now sim.Time) {
	checkFlow(s.weights, p.Flow)
	v := s.VirtualTime()
	p.Start = v
	if f := s.flowF[p.Flow]; f > p.Start {
		p.Start = f
	}
	p.Finish = p.Start + float64(p.Size)/s.weights[p.Flow]
	s.flowF[p.Flow] = p.Finish
	s.queue.push(p, p.Start)
}

// Dequeue implements Algorithm.
func (s *SFQ) Dequeue(now sim.Time) *Packet {
	p := s.queue.pop()
	if p != nil {
		s.inService = p
	}
	return p
}

// Complete implements Algorithm.
func (s *SFQ) Complete(p *Packet, now sim.Time) {
	if s.inService == p {
		s.inService = nil
	}
	if p.Finish > s.maxFinish {
		s.maxFinish = p.Finish
	}
}

// Backlogged implements Algorithm.
func (s *SFQ) Backlogged() int { return s.queue.heap.Len() }

// SCFQ is Self-Clocked Fair Queuing [2,4]: tags as in WFQ but v(t)
// approximated by the finish tag of the packet in service; serve in
// finish-tag order.
type SCFQ struct {
	weights   []float64
	flowF     []float64
	queue     queue
	vtime     float64
	inService *Packet
}

// NewSCFQ returns a packet SCFQ over flows with the given weights.
func NewSCFQ(weights []float64) *SCFQ {
	return &SCFQ{weights: weights, flowF: make([]float64, len(weights))}
}

// Name implements Algorithm.
func (s *SCFQ) Name() string { return "scfq" }

// Arrive implements Algorithm.
func (s *SCFQ) Arrive(p *Packet, now sim.Time) {
	checkFlow(s.weights, p.Flow)
	v := s.vtime
	if s.inService != nil {
		v = s.inService.Finish
	}
	p.Start = v
	if f := s.flowF[p.Flow]; f > p.Start {
		p.Start = f
	}
	p.Finish = p.Start + float64(p.Size)/s.weights[p.Flow]
	s.flowF[p.Flow] = p.Finish
	s.queue.push(p, p.Finish)
}

// Dequeue implements Algorithm.
func (s *SCFQ) Dequeue(now sim.Time) *Packet {
	p := s.queue.pop()
	if p != nil {
		s.inService = p
	}
	return p
}

// Complete implements Algorithm.
func (s *SCFQ) Complete(p *Packet, now sim.Time) {
	if s.inService == p {
		s.inService = nil
		s.vtime = p.Finish
	}
}

// Backlogged implements Algorithm.
func (s *SCFQ) Backlogged() int { return s.queue.heap.Len() }
