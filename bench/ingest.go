package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
	"pjds/internal/tuner"
)

// The ingest workload: one client uploads matrices to a server that
// tunes each new matrix on upload. MatrixMarket parsing, pJDS
// construction and the tuner sweep (which runs the host kernels) do
// the work; gpu is never touched.
const (
	// ingestRepeatEvery makes every fourth upload repeat one of the
	// three uploads before it, which the service must deduplicate.
	ingestRepeatEvery = 4
	ingestWarmScale   = 0.002
)

// New uploads rotate through the Table I matrices and alternate
// scales, so uploads vary in size as well as in shape.
var (
	ingestMatrices = []string{"sAMG", "DLR1", "HMEp"}
	ingestScales   = []float64{0.003, 0.005}
)

// ingestBlock is the statistics block: six new matrices, every kind at
// every scale, and the two repeats among them.
const ingestBlock = 8

// ingestUpload is one entry of the upload schedule.
type ingestUpload struct {
	name   string
	scale  float64
	seed   uint64
	repeat int // index of the upload this one repeats, -1 for a new matrix
}

// ingestSchedule returns upload k of the schedule.
func ingestSchedule(seed uint64, k int) ingestUpload {
	if k%ingestRepeatEvery == ingestRepeatEvery-1 {
		j := k - 1 - int(derive(seed, "repeat", k)%uint64(ingestRepeatEvery-1))
		u := ingestSchedule(seed, j)
		u.repeat = j
		return u
	}
	f := k - k/ingestRepeatEvery // ordinal among the new matrices
	return ingestUpload{
		name:   ingestMatrices[f%len(ingestMatrices)],
		scale:  ingestScales[f/len(ingestMatrices)%len(ingestScales)],
		seed:   derive(seed, "ingest", k),
		repeat: -1,
	}
}

// generate builds the upload's matrix and body.
func (u ingestUpload) generate() (*matrix.CSR[float64], []byte, error) {
	m, err := paperMatrix(u.name, u.scale, u.seed)
	if err != nil {
		return nil, nil, err
	}
	body, err := mmBody(m)
	return m, body, err
}

func runIngest(e env) (*result, error) {
	warm, err := paperMatrix("sAMG", ingestWarmScale, derive(e.seed, "warm", 0))
	if err != nil {
		return nil, err
	}
	warmBody, err := mmBody(warm)
	if err != nil {
		return nil, err
	}

	// Setup: server start with an empty tuning DB, one tuned upload and
	// one request on it.
	reps := 0
	srv, setup, err := repeatSetup(func() (*server, error) {
		reps++
		db := filepath.Join(e.tmp, "ingest-"+strconv.Itoa(reps)+".jsonl")
		s, err := startServer(service.Config{TuningDB: db, ApplyDelay: e.applyDelay})
		if err != nil {
			return nil, err
		}
		info, err := s.upload("warm", "ingest", warmBody)
		if err == nil {
			_, err = s.spmv(info.ID, "ingest", 1)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*server).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	r := &result{setup: setup, heapMB: heapMB(), workers: 1, block: ingestBlock}

	// The last few bodies and the IDs of every upload, so repeats can
	// resend bytes and check they deduplicated onto the right entry.
	bodies := map[int][]byte{}
	var ids []string
	shared := 0
	var genErr error
	before := counters(srv.reg)
	var queue *queueSampler
	if e.trace {
		queue = startQueueSampler(srv.svc)
	}
	r.closed = closedLoop(1, e.dur(1), func(k, _ int) op {
		u := ingestSchedule(e.seed, k)
		var m *matrix.CSR[float64]
		body := bodies[u.repeat]
		if u.repeat < 0 {
			if m, body, genErr = u.generate(); genErr != nil {
				ids = append(ids, "")
				return op{status: opFailed}
			}
			bodies[k] = body
			delete(bodies, k-ingestRepeatEvery)
		}
		// Collect the generator's garbage now, so the upload does not
		// pay for it.
		runtime.GC()
		o := op{start: time.Now()}
		info, err := srv.upload(u.name, "ingest", body)
		o.end = time.Now()
		ids = append(ids, info.ID)
		if info.Shared {
			shared++
		}
		o.status = classify(err, func() bool {
			if u.repeat >= 0 {
				return info.Shared && info.TuningCacheHit && info.ID == ids[u.repeat]
			}
			return !info.Shared && !info.TuningCacheHit && info.TunedFormat != "" &&
				info.Rows == m.NRows && info.Nnz == int64(m.Nnz())
		})
		return o
	})
	depth := queue.finish()
	if genErr != nil {
		return nil, fmt.Errorf("generating uploads: %w", genErr)
	}
	r.timed = r.closed
	r.tally.add(r.closed)
	if !e.trace {
		return r, nil
	}
	loop := since(before, counters(srv.reg))

	// Replay each sampled upload's layer calls as AddMatrix makes them:
	// the parse, and for a new matrix the pJDS build and a tuning sweep
	// against an empty DB.
	replays := 0
	scratch := telemetry.NewRegistry()
	err = replaySample(r.timed, r.block, func(o *op, rec *recorder) error {
		u := ingestSchedule(e.seed, o.id)
		_, body, err := u.generate()
		if err != nil {
			return err
		}
		var m *matrix.CSR[float64]
		err = rec.span("matrix", "ReadMatrixMarketOpt", -1, func() (err error) {
			m, _, err = matrix.ReadMatrixMarketOpt[float64](bytes.NewReader(body), matrix.ConvertOptions{})
			return err
		})
		if err != nil || u.repeat >= 0 {
			return err
		}
		err = rec.span("core", "NewPermutedPJDS", -1, func() error {
			op, err := solver.NewPermutedPJDS(m, core.Options{})
			if err == nil {
				op.Close()
			}
			return err
		})
		if err != nil {
			return err
		}
		replays++
		db := filepath.Join(e.tmp, "replay-"+strconv.Itoa(replays)+".jsonl")
		err = rec.span("tuner", "TuneOrLookup", -1, func() error {
			_, _, err := tuner.TuneOrLookup(m, u.name, db, tuner.Config{Workers: 1, Metrics: scratch})
			return err
		})
		if err == nil {
			err = os.Remove(db)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var mats []*matrix.CSR[float64]
	for k := 0; k < len(ingestMatrices); k++ {
		m, _, err := ingestSchedule(e.seed, k).generate()
		if err != nil {
			return nil, err
		}
		mats = append(mats, m)
	}
	if r.layers, err = layerCosts(mats, e.tmp); err != nil {
		return nil, err
	}
	for k, v := range counterMetrics(loop) {
		r.layers[k] = v
	}
	r.layers["service.queue_depth_max"] = float64(depth)
	r.layers["service.dedup_ratio"] = float64(shared) / float64(len(r.closed))
	return r, nil
}
