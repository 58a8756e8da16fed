package coordinator

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// member is one worker replica under management: its normalized base
// URL, health-probe bookkeeping, Retry-After backoff window, circuit
// breaker, and address-keyed metrics. Members start Ready — a freshly
// configured worker is dispatched to optimistically, and the prober
// (or its first failing requests) demotes it if it turns out dead.
type member struct {
	addr string
	met  *workerMetrics
	br   breaker

	mu              sync.Mutex
	ejected         bool
	probeFails      int // consecutive failed health probes
	probeOKs        int // consecutive successful health probes
	lastProbeErr    string
	retryAfterUntil time.Time // no dispatch before this (Retry-After honor)
}

func newMember(addr string, threshold int, cooldown time.Duration) *member {
	return &member{
		addr: addr,
		met:  metricsFor(addr),
		br:   breaker{threshold: threshold, cooldown: cooldown},
	}
}

// eligible reports whether the member may receive a request now:
// not ejected, outside any Retry-After window, and allowed by its
// breaker (claiming the half-open trial slot when one is granted, so
// a true return must be followed by an actual request).
func (m *member) eligible(now time.Time) bool {
	m.mu.Lock()
	blocked := m.ejected || now.Before(m.retryAfterUntil)
	m.mu.Unlock()
	if blocked {
		return false
	}
	return m.br.allow(now)
}

func (m *member) isEjected() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ejected
}

// ok records a successful RPC to the member.
func (m *member) ok(latency time.Duration) {
	m.br.success()
	m.met.requests.Inc()
	m.met.latency.Observe(latency)
}

// fail records a failed RPC to the member.
func (m *member) fail(now time.Time) {
	m.br.failure(now)
	m.met.errors.Inc()
}

// release returns an unresolved breaker trial slot for a request that
// completed with neither success nor failure (cancelled mid-flight).
func (m *member) release() {
	m.br.release()
}

// backoff extends the member's Retry-After window to until; an earlier
// until never shrinks an existing window.
func (m *member) backoff(until time.Time) {
	m.mu.Lock()
	if until.After(m.retryAfterUntil) {
		m.retryAfterUntil = until
	}
	m.mu.Unlock()
}

// membership is the worker roster New builds, in configuration order.
// The slice never changes after New; only each member's state does,
// under the member's own lock, so the hot path reads it without a set
// lock.
type membership struct {
	ejectAfter   int // consecutive probe failures before eviction
	readmitAfter int // consecutive probe successes before readmission

	members []*member

	probed atomic.Bool // at least one successful probe since startup
}

// readyCount counts the non-ejected members — the effective fan-out
// width of the next wave.
func (ms *membership) readyCount() int {
	n := 0
	for _, m := range ms.members {
		if !m.isEjected() {
			n++
		}
	}
	return n
}

// probeSuccess records a healthy probe: failure streak resets, and an
// ejected member with readmitAfter consecutive successes rejoins
// dispatch. Readmission deliberately does not touch the breaker — a
// readmitted worker re-earns closed-circuit status through traffic.
func (ms *membership) probeSuccess(m *member) {
	m.mu.Lock()
	m.probeFails = 0
	m.probeOKs++
	m.lastProbeErr = ""
	readmit := m.ejected && m.probeOKs >= ms.readmitAfter
	if readmit {
		m.ejected = false
	}
	m.mu.Unlock()
	if readmit {
		metReadmissions.Inc()
	}
	ms.probed.Store(true)
}

// probeFailure records a failed probe: success streak resets, and a
// ready member with ejectAfter consecutive failures is evicted.
// Eviction is purely a dispatch decision — outstanding shards on the
// member finish (or fail and retry elsewhere); no new work routes to
// it until readmission.
func (ms *membership) probeFailure(m *member, err error) {
	m.mu.Lock()
	m.probeOKs = 0
	m.probeFails++
	m.lastProbeErr = err.Error()
	eject := !m.ejected && m.probeFails >= ms.ejectAfter
	if eject {
		m.ejected = true
	}
	m.mu.Unlock()
	metProbeFailures.Inc()
	if eject {
		metEjections.Inc()
	}
}

// WorkerStatus is one member's externally visible state, served by
// predintd's GET /v1/internal/workers admin endpoint.
type WorkerStatus struct {
	Addr    string `json:"addr"`
	State   string `json:"state"`   // "ready" | "ejected"
	Breaker string `json:"breaker"` // "closed" | "open" | "half_open"
	// ProbeFailures / ProbeSuccesses are the current consecutive
	// streaks, not lifetime totals.
	ProbeFailures  int    `json:"consecutive_probe_failures,omitempty"`
	ProbeSuccesses int    `json:"consecutive_probe_successes,omitempty"`
	LastProbeError string `json:"last_probe_error,omitempty"`
	// RetryAfterMS is the remaining Retry-After backoff, when inside
	// a window a 503 opened.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Requests / Errors are lifetime RPC outcomes; LatencyP50US /
	// LatencyP99US summarize successful-RPC latency in microseconds.
	Requests     int64 `json:"requests"`
	Errors       int64 `json:"errors"`
	LatencyP50US int64 `json:"latency_p50_us"`
	LatencyP99US int64 `json:"latency_p99_us"`
}

func (m *member) status(now time.Time) WorkerStatus {
	st := WorkerStatus{
		Addr:         m.addr,
		State:        "ready",
		Breaker:      m.br.current().String(),
		Requests:     m.met.requests.Value(),
		Errors:       m.met.errors.Value(),
		LatencyP50US: m.met.latency.Quantile(0.50),
		LatencyP99US: m.met.latency.Quantile(0.99),
	}
	m.mu.Lock()
	if m.ejected {
		st.State = "ejected"
	}
	st.ProbeFailures = m.probeFails
	st.ProbeSuccesses = m.probeOKs
	st.LastProbeError = m.lastProbeErr
	if m.retryAfterUntil.After(now) {
		st.RetryAfterMS = m.retryAfterUntil.Sub(now).Milliseconds()
	}
	m.mu.Unlock()
	return st
}

// Per-worker RPC metrics, keyed by worker address rather than roster
// position. Registered when New builds the roster (worker sets are
// runtime data) and deduplicated on the sanitized address, so two
// coordinators in one process sharing a worker share its series.
type workerMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

var (
	workerMetricsMu sync.Mutex
	workerMetricsBy = map[string]*workerMetrics{}
)

func metricsFor(addr string) *workerMetrics {
	key := metricKey(addr)
	workerMetricsMu.Lock()
	defer workerMetricsMu.Unlock()
	m, ok := workerMetricsBy[key]
	if !ok {
		m = &workerMetrics{
			requests: obs.NewCounter(fmt.Sprintf("coordinator.worker.%s.requests", key)),
			errors:   obs.NewCounter(fmt.Sprintf("coordinator.worker.%s.errors", key)),
			latency:  obs.NewHistogram(fmt.Sprintf("coordinator.worker.%s.latency", key)),
		}
		workerMetricsBy[key] = m
	}
	return m
}

// metricKey maps a worker URL onto the registry's dotted-name
// alphabet. Sanitization alone can collide distinct addresses
// ("host-a:1" and "host_a:1" both flatten to "host_a_1"), so a short
// hash of the raw address is appended: distinct addresses always get
// distinct series, while the same address always maps to the same key.
func metricKey(addr string) string {
	s := strings.TrimPrefix(addr, "http://")
	s = strings.TrimPrefix(s, "https://")
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	h := fnv.New32a()
	io.WriteString(h, addr)
	return fmt.Sprintf("%s_%08x", b.String(), h.Sum32())
}
