package noc

import (
	"context"
	"testing"
)

// simPin is the traffic simulation of DVOPD's 90 nm network under the
// proposed model: packet counts, latencies and every link's measured
// utilization, parallel to Network.Links.
var simPin = struct {
	injected, delivered int
	avg, max            float64
	util                []float64
}{
	736, 736, 0x1.aac20661ae7a8p-28, 0x1.b3392da3d7e6bp-27, []float64{
		0x1.a36e2eb1c432dp-09, 0x1.f212d77318fc5p-07, 0x1.f212d77318fc5p-07,
		0x1.0624dd2f1a9fcp-09, 0x1.3a92a30553261p-10, 0x1.3a92a30553261p-10,
		0x1.a36e2eb1c432dp-07, 0x1.e4f765fd8adacp-07, 0x1.e4f765fd8adacp-07,
		0x1.9652bd3c36113p-07, 0x1.a36e2eb1c432dp-07, 0x1.a36e2eb1c432dp-07,
		0x1.a36e2eb1c432dp-07, 0x1.54c985f06f694p-06, 0x1.a36e2eb1c432dp-12,
		0x1.a36e2eb1c432dp-12, 0x1.a36e2eb1c432dp-12, 0x1.0624dd2f1a9fcp-08,
		0x1.a36e2eb1c432dp-09, 0x1.f212d77318fc5p-07, 0x1.f212d77318fc5p-07,
		0x1.0624dd2f1a9fcp-09, 0x1.3a92a30553261p-10, 0x1.3a92a30553261p-10,
		0x1.a36e2eb1c432dp-07, 0x1.e4f765fd8adacp-07, 0x1.e4f765fd8adacp-07,
		0x1.9652bd3c36113p-07, 0x1.a36e2eb1c432dp-07, 0x1.a36e2eb1c432dp-07,
		0x1.a36e2eb1c432dp-07, 0x1.54c985f06f694p-06, 0x1.a36e2eb1c432dp-12,
		0x1.a36e2eb1c432dp-12, 0x1.a36e2eb1c432dp-12, 0x1.0624dd2f1a9fcp-08,
		0x1.a36e2eb1c432dp-12, 0x1.a36e2eb1c432dp-12, 0x1.d7dbf487fcb92p-09,
		0x1.d7dbf487fcb92p-09, 0x1.d7dbf487fcb92p-09, 0x1.d7dbf487fcb92p-09,
	},
}

// TestSimulatePinned holds the traffic simulation bit for bit at its
// fixed window, packet size and drain.
func TestSimulatePinned(t *testing.T) {
	net, err := SynthesizeCtx(context.Background(), DVOPD(), proposed90(t), SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsInjected != simPin.injected || res.PacketsDelivered != simPin.delivered {
		t.Errorf("packets injected %d, delivered %d; want %d, %d", res.PacketsInjected, res.PacketsDelivered, simPin.injected, simPin.delivered)
	}
	if res.AvgLatency != simPin.avg || res.MaxLatency != simPin.max {
		t.Errorf("latency avg %x, max %x; want %x, %x", res.AvgLatency, res.MaxLatency, simPin.avg, simPin.max)
	}
	if len(res.LinkUtilization) != len(simPin.util) {
		t.Fatalf("%d link utilizations, want %d", len(res.LinkUtilization), len(simPin.util))
	}
	for i, u := range res.LinkUtilization {
		if u != simPin.util[i] {
			t.Errorf("link %d utilization %x, want %x", i, u, simPin.util[i])
		}
	}
}
