package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"pjds/internal/service"
	"pjds/internal/telemetry"
)

// traceLayers are the modules an operation's time is attributed to.
// The rest of an operation's latency — HTTP, JSON, admission and queue
// wait for the service workloads — is its residual.
var traceLayers = []string{"matrix", "core", "tuner", "solver", "gpu", "service", "distmv", "mpi"}

// replaySamples is how many operations of a traced run have their layer
// calls replayed.
const replaySamples = 12

// recorder collects the spans of one operation.
type recorder struct{ spans []layerSpan }

// span times f as one call into layer, nested under the span with index
// parent (-1: the operation itself).
func (r *recorder) span(layer, name string, parent int, f func() error) error {
	i := len(r.spans)
	r.spans = append(r.spans, layerSpan{layer: layer, name: name, parent: parent, start: time.Now()})
	err := f()
	r.spans[i].end = time.Now()
	return err
}

// replayInto re-executes the layer calls of o through replay and stores
// the spans on o, shifted so the replayed sequence starts when o was
// sent.
func replayInto(o *op, replay func(r *recorder) error) error {
	var r recorder
	if err := replay(&r); err != nil {
		return fmt.Errorf("replaying operation %d: %w", o.id, err)
	}
	if len(r.spans) == 0 {
		return nil
	}
	shift := o.start.Sub(r.spans[0].start)
	for i := range r.spans {
		r.spans[i].start = r.spans[i].start.Add(shift)
		r.spans[i].end = r.spans[i].end.Add(shift)
	}
	o.spans = r.spans
	return nil
}

// replaySample replays the successful operations of whole blocks (see
// blockQuantile), so the sample holds the workload's mix of inputs:
// enough blocks, evenly spaced through the run, to cover replaySamples
// operations.
func replaySample(ops []op, block int, replay func(o *op, r *recorder) error) error {
	blocks := len(ops) / block
	if blocks == 0 {
		blocks, block = 1, len(ops)
	}
	n := min(blocks, (replaySamples+block-1)/block)
	for s := 0; s < n; s++ {
		b := s * blocks / n
		for i := b * block; i < (b+1)*block; i++ {
			o := &ops[i]
			if o.status != opOK {
				continue
			}
			if err := replayInto(o, func(r *recorder) error { return replay(o, r) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// attribution splits the latency of the traced operations into the
// self time of each layer plus a residual, so the parts add up to the
// measured latency by construction.
type attribution struct {
	ops      int
	latency  float64            // seconds, summed over operations
	self     map[string]float64 // seconds, summed over operations
	residual float64            // seconds, summed over operations
}

// attribute computes the attribution over the operations with spans.
func attribute(ops []op) attribution {
	a := attribution{self: map[string]float64{}}
	for _, o := range ops {
		if len(o.spans) == 0 {
			continue
		}
		a.ops++
		lat := o.latency()
		a.latency += lat
		children := make([]float64, len(o.spans))
		top := 0.0
		for _, s := range o.spans {
			d := s.end.Sub(s.start).Seconds()
			if s.parent < 0 {
				top += d
			} else {
				children[s.parent] += d
			}
		}
		for i, s := range o.spans {
			a.self[s.layer] += s.end.Sub(s.start).Seconds() - children[i]
		}
		a.residual += lat - top
	}
	return a
}

// metrics returns the attribution's per-layer metrics: each layer's
// share of the traced latency, the residual's share, and the mean
// residual per operation.
func (a attribution) metrics() map[string]float64 {
	out := map[string]float64{}
	for _, l := range traceLayers {
		out["trace.share."+l] = 0
		if a.latency > 0 {
			out["trace.share."+l] = a.self[l] / a.latency
		}
	}
	out["trace.residual_share"], out["trace.residual_ms"] = 0, 0
	if a.ops > 0 {
		out["trace.residual_share"] = a.residual / a.latency
		out["trace.residual_ms"] = 1e3 * a.residual / float64(a.ops)
	}
	return out
}

// writeTrace writes ops as a Chrome trace readable by telemetry.ReadTrace
// and perfreport -trace-in: one process per client connection, a
// "request" lane with every operation, and one lane per layer holding
// the spans of the traced operations. All times are wall-clock seconds
// from the first operation; replayed spans are marked as such.
func writeTrace(path, workload string, seed uint64, ops []op) error {
	if len(ops) == 0 {
		return nil
	}
	t0 := ops[0].due
	for _, o := range ops {
		if o.due.Before(t0) {
			t0 = o.due
		}
	}
	at := func(t time.Time) float64 { return t.Sub(t0).Seconds() }
	var spans []telemetry.Span
	procs := map[int]string{}
	for _, o := range ops {
		req := strconv.Itoa(o.id)
		procs[o.worker] = fmt.Sprintf("%s client %d", workload, o.worker)
		spans = append(spans, telemetry.Span{
			Proc: o.worker, Lane: "request", Cat: "request", Name: workload,
			Start: at(o.due), End: at(o.end),
			Args: map[string]string{"req": req, "parent": "", "clock": "wall", "status": statusName(o.status)},
		})
		for _, s := range o.spans {
			parent := workload
			if s.parent >= 0 {
				parent = o.spans[s.parent].name
			}
			spans = append(spans, telemetry.Span{
				Proc: o.worker, Lane: s.layer, Cat: s.layer, Name: s.name,
				Start: at(s.start), End: at(s.end),
				Args: map[string]string{"req": req, "parent": parent, "clock": "wall"},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := telemetry.TraceMeta{Processes: procs, Other: map[string]any{
		"workload": workload, "seed": seed, "clock": "wall",
	}}
	if err := telemetry.WriteTrace(f, spans, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func statusName(s opStatus) string {
	switch s {
	case opFailed:
		return "failed"
	case opWrong:
		return "wrong"
	}
	return "ok"
}

// queueSampler polls the service status every 50 ms and keeps the
// deepest admission queue it saw.
type queueSampler struct {
	stop, done chan struct{}
	max        int64
}

func startQueueSampler(svc *service.Server) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				q.max = max(q.max, svc.StatusNow().QueueDepth)
			}
		}
	}()
	return q
}

// finish stops the sampler and returns the deepest queue seen; a nil
// sampler (an untraced run) saw none.
func (q *queueSampler) finish() int64 {
	if q == nil {
		return 0
	}
	close(q.stop)
	<-q.done
	return q.max
}
