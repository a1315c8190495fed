// Package simnet provides the virtual-time network fabric that the
// MPI-like layer (internal/mpi) runs on. Real data moves between rank
// goroutines through channels — so distributed results are bit-
// comparable to the serial reference — while every message carries a
// virtual timestamp computed from a latency/bandwidth model of the
// cluster interconnect (QDR InfiniBand on the NERSC Dirac cluster).
//
// The model is deliberately simple (LogGP-flavoured): a message
// injected at time t with b payload bytes arrives at
// t + Latency + b/BytesPerSecond. Injection serialization at the
// sender's NIC is the caller's responsibility (internal/mpi charges
// consecutive sends sequentially), which keeps the fabric itself
// stateless and the simulation deterministic.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pjds/internal/flight"
	"pjds/internal/telemetry"
)

// Fabric models the cluster interconnect.
type Fabric struct {
	Name string
	// LatencySeconds is the end-to-end small-message latency.
	LatencySeconds float64
	// BytesPerSecond is the per-link unidirectional bandwidth.
	BytesPerSecond float64
	// OverheadSeconds is the host CPU cost of posting one send or
	// receive (the LogGP "o" parameter).
	OverheadSeconds float64
	// AsyncProgress selects whether nonblocking operations make
	// progress while the host computes. Most MPI libraries of the
	// paper's era did NOT progress point-to-point traffic
	// asynchronously (§III-A), which is why the paper's "naive
	// overlap" variant gains nothing; a dedicated communication
	// thread (task mode) is needed for real overlap. See the
	// DESIGN.md "MPIProgress" ablation.
	AsyncProgress bool
}

// QDRInfiniBand returns a fabric resembling the Dirac cluster's QDR
// InfiniBand: ~1.5 µs latency, ~3.2 GB/s effective per-direction
// bandwidth, no asynchronous progress.
func QDRInfiniBand() *Fabric {
	return &Fabric{
		Name:            "QDR InfiniBand",
		LatencySeconds:  1.5e-6,
		BytesPerSecond:  3.2e9,
		OverheadSeconds: 0.5e-6,
	}
}

// Validate reports configuration errors.
func (f *Fabric) Validate() error {
	if f.LatencySeconds < 0 {
		return fmt.Errorf("simnet: %s: negative latency", f.Name)
	}
	if f.BytesPerSecond <= 0 {
		return fmt.Errorf("simnet: %s: non-positive bandwidth", f.Name)
	}
	if f.OverheadSeconds < 0 {
		return fmt.Errorf("simnet: %s: negative overhead", f.Name)
	}
	return nil
}

// TransferSeconds returns the wire time of a b-byte message, excluding
// queueing at the sender.
func (f *Fabric) TransferSeconds(b int64) float64 {
	if b < 0 {
		b = 0
	}
	return f.LatencySeconds + float64(b)/f.BytesPerSecond
}

// Message is one point-to-point payload in flight.
type Message struct {
	Src, Dst int
	Tag      int
	// Payload is the transported data; receivers type-assert it.
	Payload any
	// Bytes is the modelled wire size (may differ from the in-memory
	// size of Payload, e.g. for SP data carried in float64 slices).
	Bytes int64
	// SentAt is the virtual time the message entered the wire.
	SentAt float64
	// ArrivesAt is SentAt + wire time (plus any injected delay).
	ArrivesAt float64
	// Seq is the per-link sequence number assigned at injection; it
	// identifies duplicate copies and keys deterministic fault plans.
	Seq int64
	// DropAttempts is the number of transmission attempts an injected
	// fault lost before this delivery; the reliable-transport layer in
	// internal/mpi charges one timeout+backoff per lost attempt.
	DropAttempts int
	// Dup marks an injected spurious duplicate copy.
	Dup bool
}

// WireSeconds returns the message's modelled time on the wire
// (serialization plus latency), the interval overlap analysis measures
// against concurrent kernel execution.
func (m Message) WireSeconds() float64 { return m.ArrivesAt - m.SentAt }

// Switch is the per-run message exchange: a matrix of unbounded
// mailboxes, one per (src, dst) pair, with tag matching at the
// receiver. It is safe for concurrent use by the rank goroutines.
type Switch struct {
	fabric *Fabric
	n      int
	boxes  []*mailbox // index src*n + dst
	// Topology (optional): ranks in the same node communicate over the
	// intra-node fabric instead of the interconnect.
	ranksPerNode int
	intra        *Fabric
	// metrics (optional) receives wire-traffic telemetry; set before
	// the rank goroutines start. sent[2*src+intra] and recvd[dst] cache
	// its per-rank handles, sizes[intra] the message-size histograms,
	// where intra is 1 for the intra-node fabric.
	metrics *telemetry.Registry
	sent    []atomic.Pointer[sentSeries]
	recvd   []atomic.Pointer[recvdSeries]
	sizes   [2]atomic.Pointer[telemetry.Histogram]
	// faults (optional) decides the fate of every injected message; set
	// before the rank goroutines start.
	faults Injector
	// seq assigns per-link sequence numbers (index src*n + dst).
	seq []atomic.Int64
	// failure state: failedAt[r] >= 0 once rank r is marked dead.
	failMu   sync.Mutex
	failedAt []float64
}

// SetMetrics attaches a telemetry registry to the exchange. Every
// injected message is counted per sending rank and fabric, every
// delivery per receiving rank, and payload sizes feed a histogram.
// Must be called before concurrent use of the switch.
func (s *Switch) SetMetrics(reg *telemetry.Registry) {
	s.metrics = reg
	if reg != nil {
		s.sent = make([]atomic.Pointer[sentSeries], 2*s.n)
		s.recvd = make([]atomic.Pointer[recvdSeries], s.n)
		s.sizes[0].Store(nil)
		s.sizes[1].Store(nil)
		reg.Help("simnet_sent_messages_total", "messages injected into the wire")
		reg.Help("simnet_sent_bytes_total", "modelled payload bytes injected")
		reg.Help("simnet_wire_seconds_total", "latency+transfer time accumulated over messages")
		reg.Help("simnet_recv_messages_total", "messages delivered to receivers")
		reg.Help("simnet_recv_bytes_total", "modelled payload bytes delivered")
		reg.Help("simnet_message_bytes", "distribution of modelled message sizes")
	}
}

// sentSeries are one sending rank's counters on one fabric.
type sentSeries struct{ msgs, bytes, wire *telemetry.Counter }

// recvdSeries are one receiving rank's counters.
type recvdSeries struct{ msgs, bytes *telemetry.Counter }

// The handles below are resolved on a series' first use, so the
// registry exposes only series that have counted something, exactly
// as per-message lookups would. Two goroutines racing to resolve one
// store the same handles: the registry returns one series per name and
// label set.

// sentFor returns src's send counters on fab.
func (s *Switch) sentFor(src int, fab *Fabric) *sentSeries {
	slot := &s.sent[2*src+s.intraIndex(fab)]
	if h := slot.Load(); h != nil {
		return h
	}
	lbl := []telemetry.Label{telemetry.Li("rank", src), telemetry.L("fabric", fab.Name)}
	h := &sentSeries{
		msgs:  s.metrics.Counter("simnet_sent_messages_total", lbl...),
		bytes: s.metrics.Counter("simnet_sent_bytes_total", lbl...),
		wire:  s.metrics.Counter("simnet_wire_seconds_total", lbl...),
	}
	slot.Store(h)
	return h
}

// sizesFor returns the message-size histogram of fab.
func (s *Switch) sizesFor(fab *Fabric) *telemetry.Histogram {
	slot := &s.sizes[s.intraIndex(fab)]
	if h := slot.Load(); h != nil {
		return h
	}
	h := s.metrics.Histogram("simnet_message_bytes", nil, telemetry.L("fabric", fab.Name))
	slot.Store(h)
	return h
}

// recvdFor returns dst's receive counters.
func (s *Switch) recvdFor(dst int) *recvdSeries {
	slot := &s.recvd[dst]
	if h := slot.Load(); h != nil {
		return h
	}
	lbl := telemetry.Li("rank", dst)
	h := &recvdSeries{
		msgs:  s.metrics.Counter("simnet_recv_messages_total", lbl),
		bytes: s.metrics.Counter("simnet_recv_bytes_total", lbl),
	}
	slot.Store(h)
	return h
}

// intraIndex is 1 for the intra-node fabric and 0 for the interconnect.
func (s *Switch) intraIndex(fab *Fabric) int {
	if fab == s.fabric {
		return 0
	}
	return 1
}

// SetTopology declares that consecutive groups of ranksPerNode ranks
// share a physical node whose internal transfers (host shared memory /
// PCIe peer copies) use the given fabric. The paper's cluster has one
// GPU per node; multi-GPU nodes are the natural extension of its
// task-mode design ("or more if there are multiple GPGPUs in a node").
func (s *Switch) SetTopology(ranksPerNode int, intra *Fabric) error {
	if ranksPerNode < 1 {
		return fmt.Errorf("simnet: %d ranks per node", ranksPerNode)
	}
	if intra != nil {
		if err := intra.Validate(); err != nil {
			return err
		}
	}
	s.ranksPerNode = ranksPerNode
	s.intra = intra
	return nil
}

// FabricFor returns the fabric used between two ranks under the
// current topology.
func (s *Switch) FabricFor(src, dst int) *Fabric {
	if s.intra != nil && s.ranksPerNode > 1 && src/s.ranksPerNode == dst/s.ranksPerNode {
		return s.intra
	}
	return s.fabric
}

// SharedMemory returns an intra-node fabric resembling host
// shared-memory MPI transfers: sub-microsecond latency, ~6 GB/s.
func SharedMemory() *Fabric {
	return &Fabric{
		Name:            "intra-node shared memory",
		LatencySeconds:  0.4e-6,
		BytesPerSecond:  6e9,
		OverheadSeconds: 0.3e-6,
	}
}

// NewSwitch builds the exchange for n ranks on the given fabric.
func NewSwitch(fabric *Fabric, n int) (*Switch, error) {
	if err := fabric.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("simnet: %d ranks", n)
	}
	s := &Switch{
		fabric:   fabric,
		n:        n,
		boxes:    make([]*mailbox, n*n),
		seq:      make([]atomic.Int64, n*n),
		failedAt: make([]float64, n),
	}
	for i := range s.boxes {
		s.boxes[i] = newMailbox()
	}
	for i := range s.failedAt {
		s.failedAt[i] = -1
	}
	return s, nil
}

// SetFaults attaches a fault injector consulted for every message
// entering the wire. Must be called before concurrent use.
func (s *Switch) SetFaults(inj Injector) { s.faults = inj }

// MarkFailed declares rank r dead at virtual time at: receivers blocked
// on (or later blocking on) its mailboxes are released with a
// PeerFailedError once no matching message is pending. Marking the same
// rank twice keeps the first death time.
func (s *Switch) MarkFailed(r int, at float64) {
	if r < 0 || r >= s.n {
		return
	}
	s.failMu.Lock()
	if s.failedAt[r] < 0 {
		s.failedAt[r] = at
	}
	s.failMu.Unlock()
	for dst := 0; dst < s.n; dst++ {
		s.boxes[r*s.n+dst].markFailed(at)
	}
	if reg := s.metrics; reg != nil {
		reg.Help("simnet_rank_failures_total", "ranks marked dead on the fabric")
		reg.Counter("simnet_rank_failures_total", telemetry.Li("rank", r)).Inc()
	}
}

// FailedAt returns the virtual death time of rank r and whether it has
// been marked failed.
func (s *Switch) FailedAt(r int) (float64, bool) {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if r < 0 || r >= s.n || s.failedAt[r] < 0 {
		return 0, false
	}
	return s.failedAt[r], true
}

// Ranks returns the number of ranks.
func (s *Switch) Ranks() int { return s.n }

// Fabric returns the interconnect model.
func (s *Switch) Fabric() *Fabric { return s.fabric }

// Send injects a message with the given payload and modelled size at
// virtual time sentAt, returning its arrival time at dst. An attached
// fault injector may delay the message, degrade the link, record lost
// transmission attempts on it, or enqueue a spurious duplicate copy.
func (s *Switch) Send(src, dst, tag int, payload any, bytes int64, sentAt float64) (float64, error) {
	if src < 0 || src >= s.n || dst < 0 || dst >= s.n {
		return 0, &RangeError{Op: "send", Src: src, Dst: dst, Ranks: s.n}
	}
	fab := s.FabricFor(src, dst)
	link := src*s.n + dst
	seq := s.seq[link].Add(1) - 1
	var fault SendFault
	if s.faults != nil {
		fault = s.faults.OnSend(src, dst, tag, bytes, seq)
	}
	transfer := fab.TransferSeconds(bytes)
	if fault.BandwidthFactor > 1 {
		// Degraded link: only the serialization part stretches, the
		// latency term is unchanged.
		transfer = fab.LatencySeconds + (transfer-fab.LatencySeconds)*fault.BandwidthFactor
	}
	m := Message{
		Src: src, Dst: dst, Tag: tag,
		Payload: payload, Bytes: bytes,
		SentAt:       sentAt,
		ArrivesAt:    sentAt + transfer + fault.ExtraDelaySeconds,
		Seq:          seq,
		DropAttempts: fault.DropAttempts,
	}
	if reg := s.metrics; reg != nil {
		h := s.sentFor(src, fab)
		h.msgs.Inc()
		h.bytes.Add(float64(m.Bytes))
		h.wire.Add(m.ArrivesAt - m.SentAt)
		s.sizesFor(fab).Observe(float64(m.Bytes))
		if !fault.IsZero() {
			reg.Help("simnet_faults_injected_total", "message-level faults injected into the wire")
			flbl := []telemetry.Label{telemetry.Li("rank", src)}
			if fault.DropAttempts > 0 {
				reg.Counter("simnet_faults_injected_total", append(flbl, telemetry.L("kind", "drop"))...).Add(float64(fault.DropAttempts))
			}
			if fault.ExtraDelaySeconds > 0 {
				reg.Counter("simnet_faults_injected_total", append(flbl, telemetry.L("kind", "delay"))...).Inc()
			}
			if fault.Duplicate {
				reg.Counter("simnet_faults_injected_total", append(flbl, telemetry.L("kind", "duplicate"))...).Inc()
			}
			if fault.BandwidthFactor > 1 {
				reg.Counter("simnet_faults_injected_total", append(flbl, telemetry.L("kind", "degrade"))...).Inc()
			}
		}
	}
	if !fault.IsZero() {
		if fault.DropAttempts > 0 {
			flight.Record(flight.Warn, "simnet.fault.drop", src, sentAt, "transmission attempts lost on the wire", float64(fault.DropAttempts))
		}
		if fault.ExtraDelaySeconds > 0 {
			flight.Record(flight.Warn, "simnet.fault.delay", src, sentAt, "message delayed on the wire", fault.ExtraDelaySeconds)
		}
		if fault.Duplicate {
			flight.Record(flight.Warn, "simnet.fault.duplicate", src, sentAt, "spurious duplicate injected", 1)
		}
		if fault.BandwidthFactor > 1 {
			flight.Record(flight.Warn, "simnet.fault.degrade", src, sentAt, "link bandwidth degraded", fault.BandwidthFactor)
		}
	}
	s.boxes[link].put(m)
	if fault.Duplicate {
		dup := m
		dup.Dup = true
		dup.ArrivesAt += fab.LatencySeconds
		s.boxes[link].put(dup)
	}
	return m.ArrivesAt, nil
}

// Recv blocks (in host time) until a message with the given tag from
// src is available and returns it. Messages between a pair are matched
// in tag order of arrival, as MPI guarantees per-tag ordering.
// Spurious duplicate copies are discarded (and counted) here; when src
// has been marked failed and no matching message is pending, Recv
// returns a PeerFailedError instead of blocking forever.
func (s *Switch) Recv(dst, src, tag int) (Message, error) {
	if src < 0 || src >= s.n || dst < 0 || dst >= s.n {
		return Message{}, &RangeError{Op: "recv", Src: src, Dst: dst, Ranks: s.n}
	}
	m, dups, err := s.boxes[src*s.n+dst].get(tag)
	if reg := s.metrics; reg != nil {
		if dups > 0 {
			reg.Help("simnet_duplicates_dropped_total", "spurious duplicate deliveries discarded at the receiver")
			reg.Counter("simnet_duplicates_dropped_total", telemetry.Li("rank", dst)).Add(float64(dups))
		}
		if err == nil {
			h := s.recvdFor(dst)
			h.msgs.Inc()
			h.bytes.Add(float64(m.Bytes))
		}
	}
	if err != nil {
		var pf *PeerFailedError
		if errors.As(err, &pf) {
			pf.Rank = src
		}
		return Message{}, err
	}
	return m, nil
}
