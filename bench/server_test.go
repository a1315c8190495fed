package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pjds/internal/distmv"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/telemetry"
)

func TestRefusalsAndTransportErrorsCountAsFailed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch code, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/")); code {
		case http.StatusOK:
			_, _ = w.Write([]byte(`{"digest":"good","tier":"device"}`))
		case 299: // a 200 whose body does not decode
			_, _ = w.Write([]byte(`{"digest":`))
		default:
			w.WriteHeader(code)
		}
	}))
	s := &server{base: ts.URL, client: ts.Client()}
	var ops []op
	send := func(path string) {
		var res service.SpMVResult
		err := s.post(path, "t", nil, &res)
		ops = append(ops, op{status: classify(err, func() bool { return res.Digest == "good" })})
	}
	for _, path := range []string{"/429", "/503", "/504", "/500", "/200", "/299"} {
		send(path)
	}
	ts.Close()
	send("/200") // the listener is gone: a transport error
	var tl tally
	tl.add(ops)
	if tl != (tally{attempted: 7, failed: 5, wrong: 1}) {
		t.Errorf("tally = %+v, want 7 attempted, 5 failed (429, 503, 504, 500, transport), 1 wrong", tl)
	}
	if ops[4].status != opOK {
		t.Errorf("a correct 200 counted as %s", statusName(ops[4].status))
	}
}

func TestWrongDigestIsAWrongResult(t *testing.T) {
	m := matgen.Stencil2D(24, 24)
	vseeds := vectorSeeds(1)
	ref, err := newServed("stencil", m, vseeds)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.op.Close()
	s, err := startServer(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	body, err := mmBody(m)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.upload("stencil", "t", body)
	if err != nil {
		t.Fatal(err)
	}
	for v := range vseeds {
		res, err := s.spmv(info.ID, "t", vseeds[v])
		if st := classify(err, func() bool { return res.Digest == ref.digests[v] }); st != opOK {
			t.Errorf("vector %d: the service's result checked as %s", v, statusName(st))
		}
		// The same response checked against another vector's reference
		// is wrong.
		other := ref.digests[(v+1)%len(vseeds)]
		if st := classify(err, func() bool { return res.Digest == other }); st != opWrong {
			t.Errorf("vector %d: a mismatched digest checked as %s", v, statusName(st))
		}
	}
}

func TestIngestScheduleRepeatsEveryFourth(t *testing.T) {
	for k := 0; k < 40; k++ {
		u := ingestSchedule(3, k)
		if k%ingestRepeatEvery != ingestRepeatEvery-1 {
			if u.repeat != -1 {
				t.Fatalf("upload %d repeats %d, want a new matrix", k, u.repeat)
			}
			continue
		}
		if u.repeat < k-ingestRepeatEvery+1 || u.repeat >= k {
			t.Fatalf("upload %d repeats %d, want one of the three before it", k, u.repeat)
		}
		if orig := ingestSchedule(3, u.repeat); orig.seed != u.seed || orig.name != u.name || orig.scale != u.scale {
			t.Fatalf("upload %d is not the same matrix as upload %d", k, u.repeat)
		}
	}
}

func TestDistributedCGIsBitIdenticalAcrossRepeats(t *testing.T) {
	m := matgen.Stencil2D(32, 32)
	pt, err := distmv.PartitionByNnz(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := distmv.DistributeOpt(m, pt, matrix.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := service.SeedVector(m.NRows, 5)
	first, err := runDistCG(problems, b, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	again, err := runDistCG(problems, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.digest != again.digest {
		t.Errorf("repeat digest %s, first %s", again.digest, first.digest)
	}
	other, err := runDistCG(problems, service.SeedVector(m.NRows, 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.digest == first.digest {
		t.Errorf("a different right-hand side gave the same iterate digest")
	}
	if first.counts["mpi_collectives_total"] == 0 || len(first.clocks) != 4 {
		t.Errorf("missing mpi counters or clocks: %v, %v", first.counts, first.clocks)
	}
}
