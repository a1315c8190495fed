package mpi

import (
	"testing"

	"pjds/internal/simnet"
)

// TestIntraNodeFaster: with 2 ranks per node, the 0↔1 exchange uses
// the shared-memory fabric while 0↔2 crosses the interconnect.
func TestIntraNodeFaster(t *testing.T) {
	const bytes = 10_000_000
	intra := simnet.SharedMemory()
	inter := simnet.QDRInfiniBand()

	var sameNode, crossNode float64
	_, err := RunWithOptions(4, inter, Options{RanksPerNode: 2, Intra: intra}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, nil, bytes)
			c.Send(2, 0, nil, bytes)
		case 1:
			m, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			sameNode = m.ArrivesAt - m.SentAt
		case 2:
			m, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			crossNode = m.ArrivesAt - m.SentAt
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSame := intra.TransferSeconds(bytes)
	wantCross := inter.TransferSeconds(bytes)
	if absf(sameNode-wantSame) > 1e-9 {
		t.Errorf("intra-node transfer %g, want %g", sameNode, wantSame)
	}
	if absf(crossNode-wantCross) > 1e-9 {
		t.Errorf("cross-node transfer %g, want %g", crossNode, wantCross)
	}
	if sameNode >= crossNode {
		t.Errorf("intra-node not faster: %g vs %g", sameNode, crossNode)
	}
}

func TestTopologyDefaultsAndValidation(t *testing.T) {
	// ranksPerNode 1 must behave exactly like Run.
	clocks1, err := Run(2, fabric(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, nil, 1000)
		} else {
			c.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	clocks2, err := RunWithOptions(2, fabric(), Options{RanksPerNode: 1}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, nil, 1000)
		} else {
			c.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range clocks1 {
		if clocks1[i] != clocks2[i] {
			t.Errorf("rank %d: %g vs %g", i, clocks1[i], clocks2[i])
		}
	}
	// Invalid intra fabric is rejected.
	bad := &simnet.Fabric{BytesPerSecond: 0}
	if _, err := RunWithOptions(2, fabric(), Options{RanksPerNode: 2, Intra: bad}, func(c *Comm) error { return nil }); err == nil {
		t.Error("invalid intra fabric accepted")
	}
	// nil intra defaults to shared memory without error.
	if _, err := RunWithOptions(2, fabric(), Options{RanksPerNode: 2}, func(c *Comm) error { return nil }); err != nil {
		t.Errorf("default intra fabric: %v", err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
