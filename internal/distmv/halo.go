package distmv

import (
	"fmt"

	"pjds/internal/mpi"
)

// hostGatherBW is the modelled bandwidth (B/s) of the "local gather" of
// Fig. 4: packing the outgoing x elements into send buffers on the
// host.
const hostGatherBW = 8e9

// Halo is one rank's halo-exchange engine: the one protocol behind
// every distributed spMVM here (§III-A). Gather packs the send
// elements, Post posts the nonblocking receives and sends, Wait
// completes them and fills the halo. The Fig. 5 modes differ only in
// where they place the kernels around these steps; the distributed
// solvers run them in a row through Exchange.
type Halo struct {
	rp    *RankProblem
	c     *mpi.Comm
	buf   []float64      // the filled halo, in HaloCols order
	recvs []*mpi.Request // the posted receives, by source rank
	reqs  []*mpi.Request // the posted receives and sends
	tag   int            // exchanges posted so far
}

// Halo returns the rank's halo engine on c.
func (rp *RankProblem) Halo(c *mpi.Comm) *Halo {
	return &Halo{rp: rp, c: c, buf: make([]float64, rp.HaloSize())}
}

// Gather charges the rank clock for packing the send elements.
func (h *Halo) Gather() {
	h.c.Advance(float64(8*h.rp.SendElems()) / hostGatherBW)
}

// Post posts the receive of every halo segment, then sends each
// neighbour the values of x (this rank's owned elements) it needs. The
// tag is the number of exchanges posted before. Every message carries
// a fresh payload: the receiver reads it after the sender's Wait has
// returned, so a reused buffer would race.
func (h *Halo) Post(x []float64) error {
	rp, c := h.rp, h.c
	if len(x) != rp.LocalRows() {
		return fmt.Errorf("distmv: rank %d halo post |x|=%d, own %d rows", rp.Rank, len(x), rp.LocalRows())
	}
	h.recvs = h.recvs[:0]
	for o := 0; o < rp.P; o++ {
		if _, ok := rp.RecvCount[o]; ok {
			h.recvs = append(h.recvs, c.Irecv(o, h.tag))
		}
	}
	h.reqs = append(h.reqs[:0], h.recvs...)
	for d := 0; d < rp.P; d++ {
		idx, ok := rp.SendIdx[d]
		if !ok {
			continue
		}
		buf := make([]float64, len(idx))
		for k, i := range idx {
			buf[k] = x[i]
		}
		h.reqs = append(h.reqs, c.Isend(d, h.tag, buf, int64(8*len(buf))))
	}
	h.tag++
	return nil
}

// Wait completes the posted exchange and returns the filled halo,
// valid until the next Wait.
func (h *Halo) Wait() ([]float64, error) {
	rp := h.rp
	if err := h.c.Waitall(h.reqs); err != nil {
		return nil, err
	}
	for _, r := range h.recvs {
		m := r.Message
		vals, ok := m.Payload.([]float64)
		if !ok {
			return nil, fmt.Errorf("distmv: rank %d got %T from %d", rp.Rank, m.Payload, m.Src)
		}
		// A short or oversized message would otherwise corrupt the
		// neighbouring halo segments.
		if want := rp.RecvCount[m.Src]; len(vals) != want {
			return nil, &HaloSizeError{Rank: rp.Rank, Src: m.Src, GotElems: len(vals), WantElems: want}
		}
		copy(h.buf[rp.HaloOffset[m.Src]:], vals)
	}
	return h.buf, nil
}

// Exchange runs Gather, Post and Wait in a row.
func (h *Halo) Exchange(x []float64) ([]float64, error) {
	h.Gather()
	if err := h.Post(x); err != nil {
		return nil, err
	}
	return h.Wait()
}

// HaloSizeError reports a halo message whose element count does not
// match the partition's expected size for that link.
type HaloSizeError struct {
	Rank, Src           int
	GotElems, WantElems int
}

func (e *HaloSizeError) Error() string {
	return fmt.Sprintf("distmv: rank %d halo from %d carries %d elements, partition expects %d",
		e.Rank, e.Src, e.GotElems, e.WantElems)
}
