package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	predint "repro"
	"repro/internal/variation"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no workers succeeded, want error")
	}
	if _, err := New(Config{Workers: []string{"a:1", " "}}); err == nil {
		t.Error("New with a blank worker succeeded, want error")
	}
	if _, err := New(Config{Workers: []string{"a:1", "http://a:1/"}}); err == nil {
		t.Error("New with a duplicate worker succeeded, want error")
	}
	c, err := New(Config{Workers: []string{"host:8080", "http://other:9090/", " padded:1 "}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []string{"http://host:8080", "http://other:9090", "http://padded:1"}
	got := c.WorkersStatus()
	if len(got) != len(want) {
		t.Fatalf("WorkersStatus() = %+v, want addresses %v", got, want)
	}
	for i := range want {
		if got[i].Addr != want[i] {
			t.Errorf("worker %d normalized to %q, want %q", i, got[i].Addr, want[i])
		}
	}
}

// TestBreakerStateMachine pins the circuit's three states: closed
// opens at the consecutive-failure threshold, open refuses until the
// cooldown then admits exactly one half-open trial, trial success
// closes, trial failure re-opens.
func TestBreakerStateMachine(t *testing.T) {
	b := breaker{threshold: 3, cooldown: 50 * time.Millisecond}
	now := time.Now()

	for i := 0; i < 2; i++ {
		b.failure(now)
	}
	if !b.allow(now) {
		t.Fatal("breaker opened below the threshold")
	}
	b.failure(now) // third consecutive failure
	if got := b.current(); got != breakerOpen {
		t.Fatalf("after 3 consecutive failures: state %v, want open", got)
	}
	if b.allow(now) || b.allow(now.Add(10*time.Millisecond)) {
		t.Fatal("open breaker admitted traffic inside the cooldown")
	}

	// Cooldown elapsed: exactly one trial request passes.
	later := now.Add(60 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("open breaker refused the half-open trial after the cooldown")
	}
	if got := b.current(); got != breakerHalfOpen {
		t.Fatalf("post-cooldown state %v, want half_open", got)
	}
	if b.allow(later) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}

	// Trial failure re-opens for another full cooldown.
	b.failure(later)
	if got := b.current(); got != breakerOpen {
		t.Fatalf("failed trial left state %v, want open", got)
	}
	if b.allow(later.Add(10 * time.Millisecond)) {
		t.Fatal("re-opened breaker admitted traffic inside the new cooldown")
	}

	// Next trial succeeds: closed, failure streak reset.
	again := later.Add(60 * time.Millisecond)
	if !b.allow(again) {
		t.Fatal("re-opened breaker refused its next trial")
	}
	b.success()
	if got := b.current(); got != breakerClosed {
		t.Fatalf("successful trial left state %v, want closed", got)
	}
	b.failure(again)
	if !b.allow(again) {
		t.Fatal("one failure after recovery tripped the breaker — streak not reset")
	}
}

// TestBreakerReleaseUnclaimsTrial pins release(): an unresolved
// half-open trial returns its slot (the next allow() grants a new
// trial), and release outside a claimed half-open trial is a no-op.
func TestBreakerReleaseUnclaimsTrial(t *testing.T) {
	b := breaker{threshold: 1, cooldown: 50 * time.Millisecond}
	now := time.Now()

	b.release() // closed, nothing claimed: must not disturb anything
	if !b.allow(now) {
		t.Fatal("release on a closed breaker broke admission")
	}

	b.failure(now) // threshold 1: opens
	later := now.Add(60 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("open breaker refused the half-open trial after the cooldown")
	}
	if b.allow(later) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}

	// The trial was cancelled: releasing the slot must make the breaker
	// admittable again without closing it or extending the cooldown.
	b.release()
	if got := b.current(); got != breakerHalfOpen {
		t.Fatalf("released trial left state %v, want half_open", got)
	}
	if !b.allow(later) {
		t.Fatal("released half-open trial slot was not re-grantable")
	}
	b.success()
	if got := b.current(); got != breakerClosed {
		t.Fatalf("trial success left state %v, want closed", got)
	}
}

// TestCancelledTrialReleasesBreaker is the end-to-end regression for
// the half-open trial leak: a member's half-open trial claimed via
// eligible() whose RPC is then cancelled (hedge loser, wave stop) must
// return the slot — the member stays dispatchable instead of being
// locked out until process restart.
func TestCancelledTrialReleasesBreaker(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read is armed —
		// without it a client disconnect never cancels r.Context().
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // never answer; only cancellation ends the RPC
	}))
	defer hang.Close()

	c, err := New(Config{
		Workers:          []string{hang.URL},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.mem.members[0]

	m.fail(time.Now()) // threshold 1: breaker opens
	time.Sleep(5 * time.Millisecond)
	now := time.Now()
	if !m.eligible(now) {
		t.Fatal("breaker refused the half-open trial after the cooldown")
	}
	if m.eligible(now) {
		t.Fatal("second concurrent trial admitted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := c.callMember(ctx, m, ShardRequest{Op: OpSample}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled trial RPC returned %v, want context.Canceled", err)
	}

	if got := m.br.current(); got != breakerHalfOpen {
		t.Fatalf("cancelled trial left breaker %v, want half_open", got)
	}
	if !m.eligible(time.Now()) {
		t.Fatal("cancelled half-open trial never released its slot — member locked out of dispatch")
	}
}

// TestMetricKeyDistinct pins the collision fix: addresses whose
// sanitized forms coincide still get distinct metric keys, and the
// mapping stays deterministic per address.
func TestMetricKeyDistinct(t *testing.T) {
	a, b := metricKey("http://host-a:1"), metricKey("http://host_a:1")
	if a == b {
		t.Fatalf("metricKey collided: %q for both host-a:1 and host_a:1", a)
	}
	if a != metricKey("http://host-a:1") {
		t.Fatal("metricKey is not deterministic for the same address")
	}
}

// TestMemberRetryAfterBackoff pins the 503 backoff: a member inside
// its Retry-After window is ineligible, and becomes eligible again
// once the window passes; an earlier deadline never shrinks a window.
func TestMemberRetryAfterBackoff(t *testing.T) {
	m := newMember("http://w:1", 3, time.Second)
	now := time.Now()
	if !m.eligible(now) {
		t.Fatal("fresh member ineligible")
	}
	m.backoff(now.Add(100 * time.Millisecond))
	if m.eligible(now.Add(50 * time.Millisecond)) {
		t.Fatal("member eligible inside its Retry-After window")
	}
	m.backoff(now.Add(20 * time.Millisecond)) // earlier: must not shrink
	if m.eligible(now.Add(50 * time.Millisecond)) {
		t.Fatal("a shorter backoff shrank the existing window")
	}
	if !m.eligible(now.Add(150 * time.Millisecond)) {
		t.Fatal("member still ineligible after the window passed")
	}
}

// TestMembershipEvictionReadmission drives the probe bookkeeping
// directly: ejectAfter consecutive failures evict, readmitAfter
// consecutive successes readmit, and interleaved outcomes reset the
// streaks.
func TestMembershipEvictionReadmission(t *testing.T) {
	m := newMember("http://w:9", 3, time.Second)
	ms := &membership{ejectAfter: 3, readmitAfter: 2, members: []*member{m}}

	fail := func() { ms.probeFailure(m, context.DeadlineExceeded) }
	okay := func() { ms.probeSuccess(m) }

	fail()
	fail()
	okay() // streak broken
	fail()
	fail()
	if m.isEjected() {
		t.Fatal("ejected although the failure streak never reached 3")
	}
	fail()
	if !m.isEjected() {
		t.Fatal("not ejected after 3 consecutive probe failures")
	}
	if ms.readyCount() != 0 {
		t.Fatalf("readyCount = %d with the only member ejected", ms.readyCount())
	}

	okay()
	fail() // streak broken
	okay()
	if !m.isEjected() {
		t.Fatal("readmitted although the success streak never reached 2")
	}
	okay()
	if m.isEjected() {
		t.Fatal("not readmitted after 2 consecutive probe successes")
	}
	if !ms.probed.Load() {
		t.Fatal("first successful probe did not mark the set as probed")
	}
}

// TestResponseBoundCoversHonestAnswers pins the bound's derivation: the
// largest answer an honest worker can send, in predintd's compact
// encoding, fits the bound of the request it answers. A bound that did
// not would charge honest workers and quietly run every shard locally.
// At this shard size smallResponse alone would absorb a per-sample term
// that is too small, so the growth per added failing sample is checked
// against failSampleMaxSize on its own.
func TestResponseBoundCoversHonestAnswers(t *testing.T) {
	encode := func(v any) int {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	const count = 512
	worst := func(n int) ShardResponse {
		part := variation.Partial{Start: math.MaxInt - count, Count: count}
		for i := 0; i < n; i++ {
			part.FailIdx = append(part.FailIdx, math.MinInt)
			part.Weights = append(part.Weights, -1.2345678901234567e-308)
		}
		return ShardResponse{Kind: "isle", Shifted: true, Part: &part}
	}
	sample := ShardRequest{Op: OpSample, Count: count}
	if n, bound := encode(worst(count)), responseBound(sample); n > int(bound) {
		t.Errorf("every sample of a %d-sample shard failing: %d bytes over the %d-byte bound", count, n, bound)
	}
	if grow := encode(worst(count)) - encode(worst(count-1)); grow > failSampleMaxSize {
		t.Errorf("one more failing sample adds %d bytes, over the %d bytes budgeted per sample", grow, failSampleMaxSize)
	}
}

// TestShardRequestWire pins the shard body to the public keys: its req
// is the /v1/yield body, with the same omitted fields, so a worker
// decodes it with the same strict decoder as a client's request.
func TestShardRequestWire(t *testing.T) {
	samples, sigma := 2048, 3.5
	for _, tc := range []struct {
		sr   ShardRequest
		want string
	}{
		{
			ShardRequest{Op: OpSample, Req: predint.YieldRequest{Tech: "90nm", LengthMM: 5, Samples: &samples, Seed: 9,
				Workers: 1, Estimator: "isle", TargetSigma: &sigma, NoSurface: true}, Start: 512, Count: 512},
			`{"op":"sample","req":{"tech":"90nm","length_mm":5,"samples":2048,"seed":9,"workers":1,"estimator":"isle",` +
				`"target_sigma":3.5,"no_surface":true},"start":512,"count":512}`,
		},
	} {
		got, err := json.Marshal(tc.sr)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s body:\n got %s\nwant %s", tc.sr.Op, got, tc.want)
		}
	}
}
