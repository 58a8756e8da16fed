// Command yield estimates the timing yield of a buffered global link
// under process variation with the Monte Carlo engine, optionally
// resizing the buffering until a yield target holds — the titled
// paper's sizing-for-yield loop from the command line.
//
// Usage:
//
//	yield -tech 65nm -length 5 [-n 4096] [-seed 1] [-j 0]
//	      [-target 444] [-estimator auto|mc|qmc|isle|ais|wcd] [-sigma 6]
//	      [-relerr 0.05] [-abserr 0.001] [-yield 0.99]
//	      [-candidates 8:10,12:8,16:6] [-style swss|shielded|staggered]
//	      [-weight 0.5] [-sigma-scale 1]
//	      [-timeout 30s] [-metrics] [-debug-addr localhost:6060]
//
// With -candidates, the listed size:count buffering solutions are
// scored together on common random numbers (one shared sample stream)
// instead of designing a single link.
//
// -sigma declares the sigma level the query must resolve: the engine
// routes the cheapest estimator whose regime covers it (a 6σ query
// lands on adaptive importance sampling behind the worst-case-distance
// pre-filter), while -estimator pins a specific rung (-estimator isle
// is the ISLE-style importance sampler for small failure
// probabilities).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	predint "repro"
	"repro/internal/cliutil"
	"repro/internal/estimator"
)

// estimatorDescriptions describes each rung of the estimator ladder.
var estimatorDescriptions = map[estimator.Kind]string{
	estimator.MC:   "plain Monte Carlo over the standardized space",
	estimator.QMC:  "scrambled-Sobol quasi-Monte Carlo (inverse-CDF normals)",
	estimator.ISLE: "mean-shift importance sampling at the most probable failure point",
	estimator.AIS:  "adaptive importance sampling, cross-entropy mixture proposal",
	estimator.WCD:  "worst-case-distance analytic bound (no sampling)",
}

// estimatorName renders a result's estimator label for humans,
// falling back to the raw rung name for anything undescribed.
func estimatorName(kind string) string {
	if desc, ok := estimatorDescriptions[estimator.Kind(kind)]; ok {
		return fmt.Sprintf("%s: %s", kind, desc)
	}
	if kind == "" {
		return "plain Monte Carlo"
	}
	return kind
}

// parseCandidates parses the -candidates syntax: comma-separated
// size:count pairs, e.g. "8:10,12:8".
func parseCandidates(s string) ([]predint.YieldCandidate, error) {
	var out []predint.YieldCandidate
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		size, count, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("candidate %q is not size:count", part)
		}
		sz, err := strconv.ParseFloat(strings.TrimSpace(size), 64)
		if err != nil {
			return nil, fmt.Errorf("candidate %q: bad size: %v", part, err)
		}
		n, err := strconv.Atoi(strings.TrimSpace(count))
		if err != nil {
			return nil, fmt.Errorf("candidate %q: bad count: %v", part, err)
		}
		out = append(out, predint.YieldCandidate{RepeaterSize: sz, Repeaters: n})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no candidates in %q", s)
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("yield", flag.ContinueOnError)
	fs.SetOutput(stderr)
	techFlag := fs.String("tech", "65nm", "technology node")
	lengthFlag := fs.Float64("length", 5, "link length in mm")
	styleFlag := fs.String("style", "swss", "design style: swss, shielded, staggered")
	samplesFlag := fs.Int("n", predint.DefaultYieldSamples, "Monte Carlo sample budget")
	seedFlag := fs.Uint64("seed", 1, "base PRNG seed (results are bit-identical per seed for any -j)")
	jobsFlag := fs.Int("j", 0, "parallel sampling workers (0 = all cores, 1 = serial)")
	targetFlag := fs.Float64("target", 0, "delay target in ps (0 = the node's clock period)")
	estFlag := fs.String("estimator", "auto", "estimator rung: auto, mc, qmc, isle, ais, wcd")
	sigmaLevelFlag := fs.Float64("sigma", 0, "target sigma level the query must resolve, e.g. 6 (0 = none; routes the estimator)")
	relErrFlag := fs.Float64("relerr", 0, "stop early at this relative standard error (0 = run all samples)")
	absErrFlag := fs.Float64("abserr", 0, "stop early at this absolute standard error (0 = disabled)")
	yieldFlag := fs.Float64("yield", 0, "yield target in (0,1): resize the buffering to meet it (0 = estimate only)")
	candFlag := fs.String("candidates", "", "score these size:count buffering solutions on shared samples, e.g. 8:10,12:8")
	weightFlag := fs.Float64("weight", predint.DefaultPowerWeight, "power weight of the buffering objective")
	sigmaFlag := fs.Float64("sigma-scale", 1, "scale on the default variation sigmas")
	timeoutFlag := fs.Duration("timeout", 0, "abort the run after this long (0 = no deadline; SIGINT/SIGTERM always cancel)")
	metricsFlag := fs.Bool("metrics", false, "dump the observability counters as JSON to stderr after the run")
	debugAddr := fs.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address for the run's duration")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, cancel := cliutil.Context(*timeoutFlag)
	defer cancel()
	stopDebug, err := cliutil.StartDebug(*debugAddr, stderr)
	if err != nil {
		return err
	}
	defer stopDebug()
	defer cliutil.DumpMetrics(*metricsFlag, stderr)

	req := predint.YieldRequest{
		Tech:        *techFlag,
		LengthMM:    *lengthFlag,
		Style:       predint.Style(*styleFlag),
		PowerWeight: predint.Float(*weightFlag),
		Samples:     predint.Int(*samplesFlag),
		Seed:        *seedFlag,
		Workers:     *jobsFlag,
		Estimator:   *estFlag,
		SigmaScale:  predint.Float(*sigmaFlag),
	}
	if *sigmaLevelFlag != 0 {
		// Explicit values — including invalid ones — reach the facade
		// so its validation (ErrInvalidSigma) is the single authority.
		req.TargetSigma = predint.Float(*sigmaLevelFlag)
	}
	if *targetFlag > 0 {
		req.TargetPS = predint.Float(*targetFlag)
	}
	if *relErrFlag > 0 {
		req.RelErr = predint.Float(*relErrFlag)
	}
	if *absErrFlag > 0 {
		req.AbsErr = predint.Float(*absErrFlag)
	}
	if *yieldFlag > 0 {
		req.YieldTarget = predint.Float(*yieldFlag)
	}

	if *candFlag != "" {
		cands, err := parseCandidates(*candFlag)
		if err != nil {
			return err
		}
		batch, err := predint.Surfaced{}.LinkYieldBatchCtx(ctx, predint.YieldBatchRequest{
			YieldRequest: req,
			Candidates:   cands,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%g mm link at %s (%s), target %.1f ps, %d candidates on shared samples\n",
			*lengthFlag, *techFlag, *styleFlag, batch.Target*1e12, len(batch.Results))
		for _, r := range batch.Results {
			fmt.Fprintf(stdout, "  %3d × INVD%-4g  nominal %.1f ps  yield %.6f (fail %.3g ± %.2g at 95%%, %d samples, %s)\n",
				r.Repeaters, r.RepeaterSize, r.NominalDelay*1e12, r.Yield, r.FailProb, r.CI95, r.Samples, estimatorName(r.Estimator))
		}
		return nil
	}

	res, err := predint.Surfaced{}.LinkYieldCtx(ctx, req)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%g mm link at %s (%s), target %.1f ps\n",
		*lengthFlag, *techFlag, *styleFlag, res.Target*1e12)
	fmt.Fprintf(stdout, "  buffering:       %d × INVD%g (nominal delay %.1f ps)\n",
		res.Repeaters, res.RepeaterSize, res.NominalDelay*1e12)
	if res.Resized {
		fmt.Fprintln(stdout, "  (resized from the nominal objective to meet the yield target)")
	}
	fmt.Fprintf(stdout, "  yield:           %.6f (fail prob %.3g ± %.2g at 95%%)\n",
		res.Yield, res.FailProb, res.CI95)
	fmt.Fprintf(stdout, "  estimator:       %s, %d samples\n", estimatorName(res.Estimator), res.Samples)
	if res.ImportanceSampled {
		fmt.Fprintf(stdout, "  variance gain:   %.1f× over plain MC at equal samples\n", res.VarianceReduction)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "yield:", err)
		}
		os.Exit(1)
	}
}
