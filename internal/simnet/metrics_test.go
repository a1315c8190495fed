package simnet

import (
	"math"
	"testing"

	"pjds/internal/telemetry"
)

// TestFabricValidateTable exercises Validate over valid presets and
// every invalid-field combination.
func TestFabricValidateTable(t *testing.T) {
	cases := []struct {
		name   string
		fabric *Fabric
		ok     bool
	}{
		{"qdr preset", QDRInfiniBand(), true},
		{"shared memory preset", SharedMemory(), true},
		{"zero latency ok", &Fabric{BytesPerSecond: 1e9}, true},
		{"negative latency", &Fabric{LatencySeconds: -1e-9, BytesPerSecond: 1e9}, false},
		{"zero bandwidth", &Fabric{LatencySeconds: 1e-6}, false},
		{"negative bandwidth", &Fabric{BytesPerSecond: -1}, false},
		{"negative overhead", &Fabric{BytesPerSecond: 1e9, OverheadSeconds: -1e-9}, false},
	}
	for _, c := range cases {
		err := c.fabric.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid fabric accepted", c.name)
		}
	}
}

// TestSwitchMetrics checks that Send/Recv account messages, bytes and
// wire time per rank, and that sizes feed the histogram.
func TestSwitchMetrics(t *testing.T) {
	fab := QDRInfiniBand()
	sw, err := NewSwitch(fab, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sw.SetMetrics(reg)

	mustSend(t, sw, 0, 1, 0, "a", 1000, 0)
	mustSend(t, sw, 0, 1, 1, "b", 3000, 0.5)
	mustRecv(t, sw, 1, 0, 0)
	mustRecv(t, sw, 1, 0, 1)

	lbl := []telemetry.Label{telemetry.Li("rank", 0), telemetry.L("fabric", fab.Name)}
	if got := reg.Counter("simnet_sent_messages_total", lbl...).Value(); got != 2 {
		t.Errorf("sent messages = %g", got)
	}
	if got := reg.Counter("simnet_sent_bytes_total", lbl...).Value(); got != 4000 {
		t.Errorf("sent bytes = %g", got)
	}
	wantWire := fab.TransferSeconds(1000) + fab.TransferSeconds(3000)
	if got := reg.Counter("simnet_wire_seconds_total", lbl...).Value(); math.Abs(got-wantWire) > 1e-12 {
		t.Errorf("wire seconds = %g, want %g", got, wantWire)
	}
	rlbl := telemetry.Li("rank", 1)
	if got := reg.Counter("simnet_recv_messages_total", rlbl).Value(); got != 2 {
		t.Errorf("recv messages = %g", got)
	}
	if got := reg.Counter("simnet_recv_bytes_total", rlbl).Value(); got != 4000 {
		t.Errorf("recv bytes = %g", got)
	}
	h := reg.Histogram("simnet_message_bytes", nil, telemetry.L("fabric", fab.Name))
	if h.Count() != 2 || h.Sum() != 4000 {
		t.Errorf("histogram count %d sum %g", h.Count(), h.Sum())
	}
}

// TestSwitchMetricsTopology checks that intra-node messages are
// labelled with the intra fabric's name.
func TestSwitchMetricsTopology(t *testing.T) {
	sw, err := NewSwitch(QDRInfiniBand(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.SetTopology(2, SharedMemory()); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sw.SetMetrics(reg)
	mustSend(t, sw, 0, 1, 0, nil, 100, 0) // same node
	mustSend(t, sw, 0, 2, 0, nil, 100, 0) // crosses nodes
	intra := telemetry.L("fabric", SharedMemory().Name)
	inter := telemetry.L("fabric", QDRInfiniBand().Name)
	if got := reg.Counter("simnet_sent_messages_total", telemetry.Li("rank", 0), intra).Value(); got != 1 {
		t.Errorf("intra-node messages = %g", got)
	}
	if got := reg.Counter("simnet_sent_messages_total", telemetry.Li("rank", 0), inter).Value(); got != 1 {
		t.Errorf("inter-node messages = %g", got)
	}
}

// TestSendRecvTelemetryZeroAllocs checks that a warm send/recv pair
// allocates nothing for telemetry: the handles of both ranks, on the
// interconnect and the intra-node fabric, are resolved once, so the
// pair allocates as much with a registry attached as without.
func TestSendRecvTelemetryZeroAllocs(t *testing.T) {
	pairAllocs := func(reg *telemetry.Registry) float64 {
		sw, err := NewSwitch(QDRInfiniBand(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.SetTopology(2, SharedMemory()); err != nil {
			t.Fatal(err)
		}
		if reg != nil {
			sw.SetMetrics(reg)
		}
		payload := any([]float64{1, 2, 3})
		pair := func() {
			for _, dst := range []int{1, 2} { // intra-node, then interconnect
				if _, err := sw.Send(0, dst, 7, payload, 24, 0); err != nil {
					t.Fatal(err)
				}
				if _, err := sw.Recv(dst, 0, 7); err != nil {
					t.Fatal(err)
				}
			}
		}
		pair() // warm: resolve handles, size the mailboxes
		return testing.AllocsPerRun(100, pair)
	}
	without := pairAllocs(nil)
	with := pairAllocs(telemetry.NewRegistry())
	if with != without {
		t.Errorf("send/recv pairs allocate %.1f times with a registry, %.1f without", with, without)
	}
}
