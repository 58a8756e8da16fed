// Command predintd serves the predint facade over HTTP/JSON — link
// design, timing-yield estimation, and NoC synthesis as a hardened
// service:
//
//   - POST /v1/link, /v1/yield, /v1/yield/batch, /v1/noc — the facade
//     entry points; a body decodes strictly into the facade's request
//     type and the answer is its result type's own JSON, compact
//     (/v1/noc answers a projection of NoCResult)
//   - GET /healthz, /metrics — liveness and the observability snapshot
//
// Hardening, in request order: every request runs under a deadline
// (-request-timeout, tightened by a ?timeout= query parameter); at
// most -inflight requests execute at once with at most -queue more
// waiting, and anything beyond that is shed with 503 + Retry-After;
// /v1/yield requests whose Monte Carlo budget exceeds -max-yield-cost
// — or that arrive while the queue is under pressure — degrade to the
// closed-form nominal estimate, marked "degraded": true; SIGINT or
// SIGTERM drains gracefully, finishing in-flight requests (bounded by
// -drain-timeout) while rejecting new ones.
//
// The yield endpoints serve a three-tier ladder, best answer first:
// the warm-start response surface (on unless -no-surface; answers
// repeated queries by interpolation with a conservative band, marked
// "source": "surface"), then the full Monte Carlo pipeline, then —
// past the cost ceiling or under queue pressure — the closed-form
// nominal estimate ("source": "nominal").
//
// Coordinator mode (-workers host:port,host:port,...) fans each
// /v1/yield sample range out over the listed worker replicas as
// contiguous sample-index shards served at POST /v1/internal/shard,
// merging the partial accumulators in index order — the answer is
// bit-identical to a single-process run at any shard count. A shard
// body carries the /v1/yield body in its own keys, so a front and its
// workers must run the same build, and a shard longer than the
// worker's -max-yield-cost is refused. Every replica designs each link
// class and delay target once, through a bounded memo of shard plans.
// Failed shards retry against the next replica (-shard-attempts) and
// degrade to local execution when the worker set is exhausted. The front keeps its own warm surface and
// records its coordinated estimates there; a worker's surface serves
// only traffic sent to that worker directly.
//
// The worker roster is fixed by -workers at startup, and managed: a
// background prober hits each worker's /readyz every
// -worker-probe-interval, ejecting a worker after -worker-eject-after
// consecutive failures and readmitting it after -worker-readmit-after
// consecutive successes; every worker
// carries a circuit breaker consulted before dispatch; and with
// -hedge-after > 0 a straggling shard is hedged onto a second healthy
// replica, first valid answer winning. GET /v1/internal/workers
// snapshots per-worker state, breaker, probe streaks, and latency;
// GET /healthz is pure process liveness while GET /readyz additionally
// reflects draining and (in coordinator mode) first-probe readiness.
//
// Usage:
//
//	predintd [-addr localhost:8080] [-inflight 8] [-queue 64]
//	         [-request-timeout 30s] [-drain-timeout 30s]
//	         [-max-yield-cost 65536] [-retry-after 1s] [-no-surface]
//	         [-max-body 1048576]
//	         [-workers host:port,...] [-shard-samples 0]
//	         [-shard-timeout 10s] [-shard-attempts 0]
//	         [-worker-probe-interval 2s] [-worker-probe-timeout 1s]
//	         [-worker-eject-after 3] [-worker-readmit-after 2]
//	         [-hedge-after 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/coordinator"
	"repro/internal/surface"
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("predintd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrFlag := fs.String("addr", "localhost:8080", "listen address (host:port; :0 picks a free port)")
	inflightFlag := fs.Int("inflight", 8, "maximum concurrently executing requests")
	queueFlag := fs.Int("queue", 64, "admission queue depth beyond the in-flight cap; excess requests are shed with 503")
	reqTimeoutFlag := fs.Duration("request-timeout", 30*time.Second, "per-request deadline (a ?timeout= query parameter can tighten it)")
	drainTimeoutFlag := fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	maxYieldCostFlag := fs.Int("max-yield-cost", 65536, "largest Monte Carlo sample budget served in full; costlier /v1/yield requests degrade to the nominal estimate, and longer shards are refused")
	retryAfterFlag := fs.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
	noSurfaceFlag := fs.Bool("no-surface", false, "disable the yield-response-surface cache; every /v1/yield query runs the full pipeline")
	maxBodyFlag := fs.Int64("max-body", 1<<20, "largest accepted request body in bytes; bigger bodies are refused with 413")
	workersFlag := fs.String("workers", "", "comma-separated worker replica addresses; enables coordinator mode for /v1/yield")
	shardSamplesFlag := fs.Int("shard-samples", 0, "samples per shard in coordinator mode; 0 sizes shards to span roughly two waves across the worker set")
	shardTimeoutFlag := fs.Duration("shard-timeout", 10*time.Second, "per-shard RPC timeout in coordinator mode")
	shardAttemptsFlag := fs.Int("shard-attempts", 0, "replicas a failing shard is retried against before local fallback; 0 means one attempt per worker")
	probeIntervalFlag := fs.Duration("worker-probe-interval", 2*time.Second, "health-probe cadence against each worker in coordinator mode; 0 disables probing")
	probeTimeoutFlag := fs.Duration("worker-probe-timeout", time.Second, "per-probe timeout")
	ejectAfterFlag := fs.Int("worker-eject-after", 3, "consecutive probe failures before a worker is ejected from dispatch")
	readmitAfterFlag := fs.Int("worker-readmit-after", 2, "consecutive probe successes before an ejected worker is readmitted")
	hedgeAfterFlag := fs.Duration("hedge-after", 0, "delay before a straggling shard is hedged onto a second healthy worker; 0 disables hedging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inflightFlag < 1 {
		return fmt.Errorf("predintd: -inflight %d, need at least 1", *inflightFlag)
	}
	if *queueFlag < 1 {
		return fmt.Errorf("predintd: -queue %d, need at least 1", *queueFlag)
	}
	if *reqTimeoutFlag <= 0 {
		return fmt.Errorf("predintd: -request-timeout %v, need a positive duration", *reqTimeoutFlag)
	}
	if *retryAfterFlag < 0 {
		return fmt.Errorf("predintd: -retry-after %v, need a non-negative duration", *retryAfterFlag)
	}
	if *maxYieldCostFlag < 1 {
		return fmt.Errorf("predintd: -max-yield-cost %d, need at least 1", *maxYieldCostFlag)
	}
	if *maxBodyFlag < 1 {
		return fmt.Errorf("predintd: -max-body %d, need at least 1", *maxBodyFlag)
	}

	ctx, cancel := cliutil.Context(0)
	defer cancel()

	s := newServer(*inflightFlag, *queueFlag, *maxYieldCostFlag, *reqTimeoutFlag, *retryAfterFlag)
	s.maxBody = *maxBodyFlag

	// The warm-start surface is on by default in the daemon — it is
	// exactly the repeated-traffic shape the cache exists for — and a
	// strict acceleration: cold or out-of-band queries run the
	// unchanged full pipeline. The cache is per-server state (each
	// replica owns its own warm points), not process-global.
	if !*noSurfaceFlag {
		s.surf = surface.New(surface.Options{})
	}

	if *workersFlag != "" {
		coord, err := coordinator.New(coordinator.Config{
			Workers:       strings.Split(*workersFlag, ","),
			Client:        &http.Client{Timeout: *shardTimeoutFlag},
			ShardSamples:  *shardSamplesFlag,
			MaxAttempts:   *shardAttemptsFlag,
			ProbeInterval: *probeIntervalFlag,
			ProbeTimeout:  *probeTimeoutFlag,
			EjectAfter:    *ejectAfterFlag,
			ReadmitAfter:  *readmitAfterFlag,
			HedgeAfter:    *hedgeAfterFlag,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		s.coord = coord
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.routes()}
	fmt.Fprintf(stderr, "predintd listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Drain: flag first so keep-alive connections see 503s on new
		// requests, then Shutdown — which stops the listener and waits
		// for in-flight handlers — bounded by the drain timeout.
		s.draining.Store(true)
		fmt.Fprintln(stderr, "predintd draining: finishing in-flight requests, rejecting new ones")
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeoutFlag)
		defer cancelDrain()
		if err := srv.Shutdown(drainCtx); err != nil {
			_ = srv.Close()
			return fmt.Errorf("predintd: drain timed out: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintln(stderr, "predintd drained cleanly")
		return nil
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "predintd:", err)
		}
		os.Exit(1)
	}
}
