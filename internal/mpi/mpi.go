// Package mpi is an MPI-flavoured message-passing layer over the
// virtual-time fabric of internal/simnet. Ranks run as goroutines;
// payloads really move (so distributed results are verified against
// the serial reference), and every operation advances a per-rank
// virtual clock from which the strong-scaling results of Fig. 5 are
// derived.
//
// The layer reproduces the §III-A distinction the paper's three
// communication schemes hinge on: with Fabric.AsyncProgress false
// (the realistic default), a nonblocking Isend does not move data
// until the matching Wait, so "naive overlap" of communication with
// computation gains nothing; true overlap needs a dedicated
// communication thread, which callers model by running communication
// and computation on forked clocks and joining them with MaxClock.
//
// The layer is also fault-aware: an Options.Faults injector can drop,
// delay, duplicate, or degrade messages on the wire, and ranks can die
// mid-run (Comm.Crash, a body error, or a panic). Dropped messages are
// retransmitted under Options.Retry with exponential backoff charged
// to the receiver's clock; silent rank death is converted by a
// heartbeat-modelled failure detector into a typed RankFailedError
// instead of a deadlock.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"pjds/internal/flight"
	"pjds/internal/profiles"
	"pjds/internal/simnet"
	"pjds/internal/telemetry"
)

// Comm is one rank's endpoint: a rank id, a virtual clock, and the
// shared switch and collective coordinator.
type Comm struct {
	rank  int
	world *World
	clock float64
	// nicBusyUntil serializes message injection at this rank's NIC.
	nicBusyUntil float64
	// err latches the first clock violation (Advance/SetClock keep
	// their void signatures); Run surfaces it as the rank's error.
	err error
	// counters caches the rank's telemetry handles (see count).
	counters [numCounters]*telemetry.Counter
}

// Request is a pending nonblocking operation.
type Request struct {
	comm *Comm
	send bool
	done bool

	// send fields
	dst, tag int
	payload  any
	bytes    int64
	injected bool    // true once handed to the wire
	doneAt   float64 // injection end (send) or arrival (recv)

	// recv fields
	src     int
	Message simnet.Message // filled after Wait for receives
}

// World owns the shared state of one simulated run.
type World struct {
	sw      *simnet.Switch
	coord   *coordinator
	errs    []error
	comms   []*Comm
	metrics *telemetry.Registry
	spans   *telemetry.SpanLog
	retry   RetryPolicy
	hb      float64
}

// Run executes body on n ranks over the given fabric and returns the
// final virtual clock of every rank. A panic in a rank body is
// converted into an error carrying the rank id; errors are surfaced
// preferring root causes (a crash or body error) over the secondary
// RankFailedErrors the survivors observe.
func Run(n int, fabric *simnet.Fabric, body func(*Comm) error) ([]float64, error) {
	return RunWithOptions(n, fabric, Options{}, body)
}

// RunWithTopology is Run for clusters with several ranks (GPUs) per
// physical node: consecutive groups of ranksPerNode ranks exchange
// messages over the intra fabric (nil selects simnet.SharedMemory when
// ranksPerNode > 1).
func RunWithTopology(n int, fabric *simnet.Fabric, ranksPerNode int, intra *simnet.Fabric, body func(*Comm) error) ([]float64, error) {
	return RunWithOptions(n, fabric, Options{RanksPerNode: ranksPerNode, Intra: intra}, body)
}

// Options parameterize a simulated run beyond the interconnect model.
type Options struct {
	// RanksPerNode places that many consecutive ranks on one physical
	// node (0 or 1 = one rank per node).
	RanksPerNode int
	// Intra is the intra-node fabric (nil selects simnet.SharedMemory
	// when RanksPerNode > 1).
	Intra *simnet.Fabric
	// Metrics receives message-passing telemetry: per-rank send/recv
	// counts and bytes, serialization and receive-wait time, collective
	// counts, and fault/retry/detection counts (plus the simnet
	// wire-level series).
	Metrics *telemetry.Registry
	// Spans (nil = off) receives one span per message-passing event on
	// each rank's "mpi" lane: sends cover the NIC injection interval
	// and carry peer/tag/bytes/arrives args, receives cover the
	// posted-to-completion interval, and collectives cover the
	// entry-to-release interval with the straggler rank as "root".
	// Fault handling adds "retry backoff", "failure detect", and
	// "crash" spans. These args are what internal/critpath builds
	// cross-rank happens-before edges from.
	Spans *telemetry.SpanLog
	// Faults injects wire-level faults (drops, delays, duplicates,
	// degradation) into every transmission; nil runs a healthy fabric.
	Faults simnet.Injector
	// Retry is the reliable-transport policy for dropped messages; the
	// zero value selects DefaultRetry.
	Retry RetryPolicy
	// HeartbeatSeconds is the failure-detector period: a silently dead
	// peer is detected at max(own clock, death + heartbeat). Zero
	// selects DefaultHeartbeatSeconds.
	HeartbeatSeconds float64
}

// RunWithOptions is the fully-parameterized Run.
func RunWithOptions(n int, fabric *simnet.Fabric, opt Options, body func(*Comm) error) ([]float64, error) {
	sw, err := simnet.NewSwitch(fabric, n)
	if err != nil {
		return nil, err
	}
	if opt.RanksPerNode > 1 {
		intra := opt.Intra
		if intra == nil {
			intra = simnet.SharedMemory()
		}
		if err := sw.SetTopology(opt.RanksPerNode, intra); err != nil {
			return nil, err
		}
	}
	if opt.Faults != nil {
		sw.SetFaults(opt.Faults)
	}
	if opt.Metrics != nil {
		sw.SetMetrics(opt.Metrics)
		for _, m := range mpiCounters {
			opt.Metrics.Help(m.name, m.help)
		}
	}
	retry := opt.Retry.normalized()
	hb := opt.HeartbeatSeconds
	if hb <= 0 {
		hb = DefaultHeartbeatSeconds
	}
	w := &World{
		metrics: opt.Metrics,
		spans:   opt.Spans,
		sw:      sw,
		coord:   newCoordinator(n),
		errs:    make([]error, n),
		comms:   make([]*Comm, n),
		retry:   retry,
		hb:      hb,
	}
	for i := range w.comms {
		w.comms[i] = &Comm{rank: i, world: w}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// The rank goroutine owns its whole body: label it once so
			// profile samples attribute to phase=mpi with the rank.
			// (Solver bodies re-label themselves phase=solver.)
			profiles.SetPhase(profiles.PhaseMPI, "rank", strconv.Itoa(rank))
			c := w.comms[rank]
			defer func() {
				if r := recover(); r != nil {
					w.errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, r)
				}
				if w.errs[rank] == nil {
					w.errs[rank] = c.err
				}
				if w.errs[rank] != nil {
					// Any failing rank is dead to its peers: mark it so
					// receivers and collectives unwind with typed errors
					// instead of deadlocking on a rank that will never
					// send or rendezvous again.
					w.markDead(rank, c.clock)
				}
			}()
			w.errs[rank] = body(c)
		}(i)
	}
	wg.Wait()
	clocks := make([]float64, n)
	for i, c := range w.comms {
		clocks[i] = c.clock
	}
	return clocks, w.firstError()
}

// firstError picks the error Run reports: the lowest-rank root cause
// (crash, body error, clock violation) if any, otherwise the
// lowest-rank secondary failure observation.
func (w *World) firstError() error {
	var secondary error
	for _, err := range w.errs {
		if err == nil {
			continue
		}
		var rf *RankFailedError
		if errors.As(err, &rf) && rf.DetectedBy >= 0 {
			if secondary == nil {
				secondary = err
			}
			continue
		}
		return err
	}
	return secondary
}

// markDead latches a rank's death on the coordinator (failing
// collectives) and the switch (releasing blocked receivers). Idempotent:
// only the first death time sticks.
//
// The coordinator goes first: a peer that observes this death on the
// switch dies in turn and latches its own death, and that secondary
// death must not win the coordinator's one-death latch, or ranks
// waiting in a collective would detect it one heartbeat later than the
// root cause, depending on goroutine scheduling.
func (w *World) markDead(rank int, at float64) {
	w.coord.markFailed(rank, at)
	w.sw.MarkFailed(rank, at)
}

// Rank returns this endpoint's rank id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.sw.Ranks() }

// Fabric returns the interconnect model.
func (c *Comm) Fabric() *simnet.Fabric { return c.world.sw.Fabric() }

// Clock returns the rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.clock }

// Err returns the latched clock error, if any.
func (c *Comm) Err() error { return c.err }

// fail latches the first clock violation; later clock ops are no-ops.
func (c *Comm) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Advance adds local compute time to the clock. A negative dt latches
// a ClockError on the Comm (surfaced by Run) instead of panicking.
func (c *Comm) Advance(dt float64) {
	if c.err != nil {
		return
	}
	if dt < 0 {
		c.fail(&ClockError{Op: "advance", From: c.clock, To: c.clock + dt})
		return
	}
	c.clock += dt
}

// SetClock moves the clock to t; callers use it to join forked
// timelines (task mode) and must never move time backwards. A
// backwards move latches a ClockError instead of panicking.
func (c *Comm) SetClock(t float64) {
	if c.err != nil {
		return
	}
	if t < c.clock {
		c.fail(&ClockError{Op: "set", From: c.clock, To: t})
		return
	}
	c.clock = t
}

// Crash kills this rank at its current virtual clock, releasing every
// peer blocked on it, and returns the typed error the rank body should
// propagate. It models a node failure injected by a fault plan.
func (c *Comm) Crash() error {
	c.world.markDead(c.rank, c.clock)
	c.count(ctrRankCrashes, 1)
	c.span(SpanCrash, c.clock, c.clock, map[string]string{ArgFailedAt: fmtTime(c.clock)})
	flight.Record(flight.Error, "mpi.rank_crash", c.rank, c.clock, "rank killed by injected fault", 0)
	return &RankFailedError{Rank: c.rank, FailedAt: c.clock, DetectedBy: -1, DetectedAt: c.clock}
}

// counterID indexes mpiCounters and Comm.counters.
type counterID int

// The per-rank message-passing counters.
const (
	ctrSends counterID = iota
	ctrSendBytes
	ctrRecvs
	ctrSendSerialization
	ctrRecvWait
	ctrOverhead
	ctrBarriers
	ctrAllreduceSums
	ctrAllreduceMaxes
	ctrRetries
	ctrRetryWait
	ctrRetriesExhausted
	ctrRankCrashes
	ctrFailuresDetected
	numCounters
)

// mpiCounters names each counter's family, its op label (collectives
// only) and the family's help text.
var mpiCounters = [numCounters]struct{ name, op, help string }{
	ctrSends:             {"mpi_sends_total", "", "point-to-point sends posted"},
	ctrSendBytes:         {"mpi_send_bytes_total", "", "modelled bytes posted for sending"},
	ctrRecvs:             {"mpi_recvs_total", "", "point-to-point receives completed"},
	ctrSendSerialization: {"mpi_send_serialization_seconds_total", "", "NIC injection (serialization) time per rank"},
	ctrRecvWait:          {"mpi_recv_wait_seconds_total", "", "virtual time spent blocked in receive waits"},
	ctrOverhead:          {"mpi_overhead_seconds_total", "", "host CPU overhead of posting operations (LogGP o)"},
	ctrBarriers:          {"mpi_collectives_total", "barrier", "collective operations by kind"},
	ctrAllreduceSums:     {"mpi_collectives_total", "allreduce_sum", "collective operations by kind"},
	ctrAllreduceMaxes:    {"mpi_collectives_total", "allreduce_max", "collective operations by kind"},
	ctrRetries:           {"mpi_retries_total", "", "message retransmissions charged by the reliable transport"},
	ctrRetryWait:         {"mpi_retry_wait_seconds_total", "", "virtual time charged to timeout+backoff on dropped messages"},
	ctrRetriesExhausted:  {"mpi_retries_exhausted_total", "", "receives failed after the retry budget ran out"},
	ctrRankCrashes:       {"mpi_rank_crashes_total", "", "injected rank crashes"},
	ctrFailuresDetected:  {"mpi_failures_detected_total", "", "peer deaths observed by the heartbeat failure detector"},
}

// count adds v to a per-rank counter when telemetry is attached. The
// handle is resolved on the counter's first use, so a rank exposes
// only the series it has touched, and cached in the Comm, which only
// its rank goroutine uses.
func (c *Comm) count(id counterID, v float64) {
	reg := c.world.metrics
	if reg == nil {
		return
	}
	h := c.counters[id]
	if h == nil {
		m := &mpiCounters[id]
		lbl := []telemetry.Label{telemetry.Li("rank", c.rank)}
		if m.op != "" {
			lbl = append(lbl, telemetry.L("op", m.op))
		}
		h = reg.Counter(m.name, lbl...)
		c.counters[id] = h
	}
	h.Add(v)
}

// Span vocabulary of the per-rank "mpi" lane, consumed by
// internal/critpath to build cross-rank happens-before edges.
const (
	// SpanLane and SpanCat identify message-passing spans.
	SpanLane = "mpi"
	SpanCat  = "net"
	// SpanSend covers a message's NIC injection interval; SpanRecv the
	// posted-to-completion interval of a receive.
	SpanSend = "send"
	SpanRecv = "recv"
	// SpanRetry covers the timeout+backoff interval charged for a
	// dropped message's retransmissions; SpanDetect the interval from a
	// blocked operation to the heartbeat detection of a dead peer;
	// SpanCrash marks the instant a rank dies to an injected fault.
	SpanRetry  = "retry backoff"
	SpanDetect = "failure detect"
	SpanCrash  = "crash"
	// Args attached to the spans above. Times are virtual seconds in
	// strconv 'g'/-1 form (exact float64 round trip).
	ArgPeer     = "peer"      // the other rank of a point-to-point message
	ArgTag      = "tag"       // message tag
	ArgBytes    = "bytes"     // modelled wire size
	ArgSent     = "sent"      // injection start (SentAt)
	ArgArrives  = "arrives"   // arrival time at the destination
	ArgFabric   = "fabric"    // fabric carrying the message
	ArgOp       = "op"        // collective kind
	ArgRoot     = "root"      // collective straggler: the rank that set maxClock
	ArgGen      = "gen"       // rendezvous generation, one id per collective instance
	ArgAttempts = "attempts"  // lost transmission attempts behind a retry span
	ArgFailedAt = "failed_at" // virtual death time behind a detect/crash span
)

// fmtTime renders a virtual time so it round-trips exactly through the
// span args.
func fmtTime(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// span records one event on this rank's mpi lane when a span log is
// attached.
func (c *Comm) span(name string, start, end float64, args map[string]string) {
	if c.world.spans == nil {
		return
	}
	c.world.spans.Add(telemetry.Span{
		Proc: c.rank, Lane: SpanLane, Cat: SpanCat, Name: name,
		Start: start, End: end, Args: args,
	})
}

// collSpan records one collective on the mpi lane: the interval from
// this rank's entry to its release, pointing at the straggler rank
// (deterministic first-argmax over the arrival clocks) so the
// critical path can hop to the rank that actually gated the operation.
func (c *Comm) collSpan(op string, entry float64, res rendezvousResult) {
	if c.world.spans == nil {
		return
	}
	root := 0
	for i, cl := range res.clocks {
		if cl > res.clocks[root] {
			root = i
		}
	}
	c.span(op, entry, c.clock, map[string]string{
		ArgOp:   op,
		ArgRoot: strconv.Itoa(root),
		ArgGen:  strconv.Itoa(res.gen),
	})
}

// detectFailure converts a simnet.PeerFailedError into a typed
// RankFailedError with heartbeat-modelled detection timing: the
// detector learns of the death no earlier than death + heartbeat, and
// never before its own current clock.
func (c *Comm) detectFailure(pf *simnet.PeerFailedError, blockedSince float64) *RankFailedError {
	detected := math.Max(c.clock, pf.FailedAt+c.world.hb)
	c.clock = detected
	c.count(ctrFailuresDetected, 1)
	flight.Record(flight.Error, "mpi.rank_failed", c.rank, detected, "heartbeat detector observed peer death", float64(pf.Rank))
	c.span(SpanDetect, blockedSince, detected, map[string]string{
		ArgPeer:     strconv.Itoa(pf.Rank),
		ArgFailedAt: fmtTime(pf.FailedAt),
	})
	return &RankFailedError{
		Rank: pf.Rank, FailedAt: pf.FailedAt,
		DetectedBy: c.rank, DetectedAt: detected,
	}
}

// inject hands a message to the wire at the earliest time ≥ at the NIC
// is free, returning the injection-complete time.
func (c *Comm) inject(r *Request, at float64) (float64, error) {
	start := math.Max(at, c.nicBusyUntil)
	fab := c.world.sw.FabricFor(c.rank, r.dst)
	wire := float64(r.bytes) / fab.BytesPerSecond
	arrives, err := c.world.sw.Send(c.rank, r.dst, r.tag, r.payload, r.bytes, start)
	if err != nil {
		return start, err
	}
	c.nicBusyUntil = start + wire
	r.injected = true
	c.count(ctrSendSerialization, wire)
	if c.world.spans != nil {
		c.span(SpanSend, start, c.nicBusyUntil, map[string]string{
			ArgPeer:    strconv.Itoa(r.dst),
			ArgTag:     strconv.Itoa(r.tag),
			ArgBytes:   strconv.FormatInt(r.bytes, 10),
			ArgSent:    fmtTime(start),
			ArgArrives: fmtTime(arrives),
			ArgFabric:  fab.Name,
		})
	}
	return c.nicBusyUntil, nil
}

// Isend posts a nonblocking send of payload with the given modelled
// wire size. With asynchronous progress the data enters the wire
// immediately; without it (the realistic default, §III-A) the data
// moves only when Wait is called. An injection error (out-of-range
// destination) is deferred to Wait.
func (c *Comm) Isend(dst, tag int, payload any, bytes int64) *Request {
	c.clock += c.Fabric().OverheadSeconds
	c.count(ctrOverhead, c.Fabric().OverheadSeconds)
	c.count(ctrSends, 1)
	c.count(ctrSendBytes, float64(bytes))
	r := &Request{comm: c, send: true, dst: dst, tag: tag, payload: payload, bytes: bytes}
	if c.Fabric().AsyncProgress {
		// Defer any injection error to Wait, like real MPI defers
		// delivery failures to completion.
		r.doneAt, _ = c.inject(r, c.clock)
	}
	return r
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(src, tag int) *Request {
	c.clock += c.Fabric().OverheadSeconds
	c.count(ctrOverhead, c.Fabric().OverheadSeconds)
	return &Request{comm: c, src: src, tag: tag}
}

// Wait completes the request and advances the clock to its completion
// time. For receives, the matched message is then available in
// r.Message. Wait returns a typed error when the peer rank died
// (RankFailedError), the message was dropped beyond the retry budget
// (RetriesExhaustedError), or the peer is out of range.
func (r *Request) Wait() error {
	c := r.comm
	if r.done {
		return nil
	}
	r.done = true
	if r.send {
		if !r.injected {
			// No asynchronous progress: the CPU drives the transfer
			// now, inside Wait.
			var err error
			if r.doneAt, err = c.inject(r, c.clock); err != nil {
				return err
			}
		}
		c.clock = math.Max(c.clock, r.doneAt)
		return nil
	}
	posted := c.clock
	m, err := c.world.sw.Recv(c.rank, r.src, r.tag)
	if err != nil {
		var pf *simnet.PeerFailedError
		if errors.As(err, &pf) {
			return c.detectFailure(pf, posted)
		}
		return err
	}
	arrives := m.ArrivesAt
	if m.DropAttempts > 0 {
		// The wire lost m.DropAttempts transmissions before this copy
		// got through. The reliable transport charges one
		// timeout+backoff per lost attempt, starting from when both the
		// receiver was waiting and the original copy would have
		// arrived.
		// The per-rank policy view: with jitter enabled, this rank's
		// backoff schedule is decorrelated from every other rank's, so
		// a shared drop burst can't re-synchronize the retries.
		pol := c.world.retry.ForRank(c.rank)
		lost := m.DropAttempts
		if lost > pol.MaxRetries {
			charged := pol.totalBackoff(pol.MaxRetries)
			base := math.Max(posted, arrives)
			c.clock = base + charged
			c.count(ctrRetries, float64(pol.MaxRetries))
			c.count(ctrRetryWait, charged)
			c.count(ctrRetriesExhausted, 1)
			flight.Record(flight.Error, "mpi.retries_exhausted", c.rank, c.clock, "receive failed after retry budget", float64(lost))
			c.span(SpanRetry, base, c.clock, map[string]string{
				ArgPeer:     strconv.Itoa(m.Src),
				ArgTag:      strconv.Itoa(m.Tag),
				ArgAttempts: strconv.Itoa(lost),
			})
			return &RetriesExhaustedError{
				Src: m.Src, Dst: c.rank, Tag: m.Tag,
				Attempts: lost, MaxRetries: pol.MaxRetries,
			}
		}
		charged := pol.totalBackoff(lost)
		base := math.Max(posted, arrives)
		arrives = base + charged
		c.count(ctrRetries, float64(lost))
		c.count(ctrRetryWait, charged)
		c.span(SpanRetry, base, arrives, map[string]string{
			ArgPeer:     strconv.Itoa(m.Src),
			ArgTag:      strconv.Itoa(m.Tag),
			ArgAttempts: strconv.Itoa(lost),
		})
	}
	r.Message = m
	r.doneAt = arrives
	c.clock = math.Max(c.clock, r.doneAt)
	c.count(ctrRecvs, 1)
	c.count(ctrRecvWait, math.Max(0, r.doneAt-posted))
	if c.world.spans != nil {
		c.span(SpanRecv, posted, c.clock, map[string]string{
			ArgPeer:    strconv.Itoa(r.Message.Src),
			ArgTag:     strconv.Itoa(r.Message.Tag),
			ArgBytes:   strconv.FormatInt(r.Message.Bytes, 10),
			ArgSent:    fmtTime(r.Message.SentAt),
			ArgArrives: fmtTime(r.Message.ArrivesAt),
		})
	}
	return nil
}

// Waitall completes all requests (sends first, so un-progressed data
// enters the wire before receives are drained, as MPI_Waitall would)
// and returns the first error; remaining requests are abandoned when
// one fails, since the run is unwinding anyway.
func (c *Comm) Waitall(reqs []*Request) error {
	for _, r := range reqs {
		if r.send {
			if err := r.Wait(); err != nil {
				return err
			}
		}
	}
	for _, r := range reqs {
		if !r.send {
			if err := r.Wait(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Send is the blocking convenience: Isend + Wait.
func (c *Comm) Send(dst, tag int, payload any, bytes int64) error {
	return c.Isend(dst, tag, payload, bytes).Wait()
}

// Recv is the blocking convenience: Irecv + Wait.
func (c *Comm) Recv(src, tag int) (simnet.Message, error) {
	r := c.Irecv(src, tag)
	if err := r.Wait(); err != nil {
		return simnet.Message{}, err
	}
	return r.Message, nil
}

// logSteps returns ceil(log2(n)), the tree depth of collectives.
func logSteps(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// rendezvous wraps the coordinator call with failure detection: when a
// rank died before completing the collective, every survivor gets a
// RankFailedError with heartbeat detection timing.
func (c *Comm) rendezvous(payload any) (rendezvousResult, error) {
	entry := c.clock
	res, err := c.world.coord.rendezvous(c.rank, c.clock, payload)
	if err != nil {
		var pf *simnet.PeerFailedError
		if errors.As(err, &pf) {
			return res, c.detectFailure(pf, entry)
		}
		return res, err
	}
	return res, nil
}

// Barrier synchronizes all ranks: every clock jumps to the maximum
// plus a tree-depth latency term.
func (c *Comm) Barrier() error {
	entry := c.clock
	res, err := c.rendezvous(nil)
	if err != nil {
		return err
	}
	c.clock = res.maxClock + logSteps(c.Size())*c.Fabric().LatencySeconds
	c.count(ctrBarriers, 1)
	c.collSpan("barrier", entry, res)
	return nil
}

// AllreduceSum returns the sum of x over all ranks; clocks
// synchronize to the maximum plus a reduce+broadcast tree cost.
func (c *Comm) AllreduceSum(x float64) (float64, error) {
	entry := c.clock
	res, err := c.rendezvous(x)
	if err != nil {
		return 0, err
	}
	c.clock = res.maxClock + 2*logSteps(c.Size())*c.Fabric().LatencySeconds
	c.count(ctrAllreduceSums, 1)
	c.collSpan("allreduce_sum", entry, res)
	sum := 0.0
	for _, v := range res.payloads {
		sum += v.(float64)
	}
	return sum, nil
}

// AllreduceMax returns the maximum of x over all ranks, with the same
// timing as AllreduceSum.
func (c *Comm) AllreduceMax(x float64) (float64, error) {
	entry := c.clock
	res, err := c.rendezvous(x)
	if err != nil {
		return 0, err
	}
	c.clock = res.maxClock + 2*logSteps(c.Size())*c.Fabric().LatencySeconds
	c.count(ctrAllreduceMaxes, 1)
	c.collSpan("allreduce_max", entry, res)
	max := math.Inf(-1)
	for _, v := range res.payloads {
		if f := v.(float64); f > max {
			max = f
		}
	}
	return max, nil
}

// AllgatherUntimed exchanges arbitrary per-rank payloads without
// advancing any clock. It exists for setup phases — building the
// communication pattern of the distributed spMVM — and for checkpoint
// assembly, which the paper's measurements exclude.
func (c *Comm) AllgatherUntimed(payload any) ([]any, error) {
	res, err := c.rendezvous(payload)
	if err != nil {
		return nil, err
	}
	out := make([]any, len(res.payloads))
	copy(out, res.payloads)
	return out, nil
}
