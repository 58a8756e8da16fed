#!/bin/sh
# Runs the BenchmarkLinkYield* suite (the root package's, and
# cmd/predintd's coordinator pair) under -benchmem and emits
# BENCH_yield.json — one object per sub-benchmark with the timing, the
# custom metrics, and the derived per-sample allocation rates — so the
# yield engine's performance trajectory accumulates across commits.
#
# With a second argument (or ALLOC_CEILING_PER_SAMPLE in the
# environment), the script additionally fails when any sub-benchmark
# allocates more heap objects per sample than the ceiling — the CI
# regression gate for the zero-allocation sampling kernel.
#
# With a third argument (or SURFACE_NS_CEILING in the environment), the
# script also fails when the warm-surface benchmark
# (BenchmarkLinkYieldSurfaceWarm) exceeds that many ns/op — the CI gate
# on the serving layer's warm-query latency budget.
#
# With a fourth argument (or AIS_NS_PER_SAMPLE_CEILING), the script
# fails when the adaptive-importance-sampling benchmark
# (BenchmarkLinkYieldAIS) exceeds that many ns per sample — the gate
# that keeps the deep-tail rung's per-draw overhead (mixture sampling,
# log-density, importance weight) bounded relative to plain MC.
#
# With a fifth argument (or WCD_PREFILTER_NS_CEILING), the script fails
# when the worst-case-distance pre-filter benchmark
# (BenchmarkLinkYieldWCDPrefilter) exceeds that many ns/op: the
# certify-or-fall-through decision rides the per-candidate hot path of
# sizing sweeps, so it must stay sub-microsecond.
#
# With a sixth argument (or COORD_OVERHEAD_FACTOR), the script fails
# when the coordinator's single-local-worker loopback benchmark
# (BenchmarkLinkYieldCoordinator/loopback in cmd/predintd, whose worker
# is a default-config predintd replica) runs more than that factor
# slower than direct execution (.../direct): the shard protocol (HTTP,
# JSON, index-ordered partial merge) is bookkeeping around the same
# sample evaluations and must stay a small constant factor.
#
# With a seventh argument (or MC_NS_PER_SAMPLE_CEILING), the script
# fails when the plain-MC serial benchmark (.../mc-serial) exceeds that
# many ns per sample — the throughput gate on the SoA lane kernel.
#
# With an eighth argument (or MC_PARALLEL_FACTOR), the script fails
# when mc-parallel runs more than that factor slower than mc-serial per
# sample: parallel dispatch must never lose to serial (the lane-granular
# pool dispatch exists precisely so per-sample dispatch overhead cannot
# eat the parallel speedup).
#
# With a ninth argument (or COORD_ALLOCS_CEILING), the script fails
# when the coordinator loopback benchmark allocates more than that many
# heap objects per operation — the guard on the shard protocol's pooled
# encode/decode scratch.
#
# Usage: scripts/bench_yield.sh [benchtime] [alloc ceiling] [surface ns ceiling] \
#                               [ais ns/sample ceiling] [wcd prefilter ns ceiling] \
#                               [coordinator overhead factor] [mc ns/sample ceiling] \
#                               [mc parallel factor] [coordinator allocs ceiling]
#        (default 5x, no gates)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-5x}"
ceiling="${2:-${ALLOC_CEILING_PER_SAMPLE:-}}"
surface_ceiling="${3:-${SURFACE_NS_CEILING:-}}"
ais_ceiling="${4:-${AIS_NS_PER_SAMPLE_CEILING:-}}"
wcd_ceiling="${5:-${WCD_PREFILTER_NS_CEILING:-}}"
coord_factor="${6:-${COORD_OVERHEAD_FACTOR:-}}"
mc_ceiling="${7:-${MC_NS_PER_SAMPLE_CEILING:-}}"
mc_par_factor="${8:-${MC_PARALLEL_FACTOR:-}}"
coord_allocs="${9:-${COORD_ALLOCS_CEILING:-}}"
out="BENCH_yield.json"

{
	go test -run '^$' -bench 'BenchmarkLinkYield' -benchtime "$benchtime" -benchmem .
	go test -run '^$' -bench 'BenchmarkLinkYieldCoordinator' -benchtime "$benchtime" -benchmem ./cmd/predintd
	go test -run '^$' -bench 'BenchmarkNormsInto|BenchmarkLaneKernel' -benchtime "$benchtime" -benchmem ./internal/variation
} |
	awk -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" '
	/^Benchmark(LinkYield|NormsInto|LaneKernel)/ {
		# Fields: name iterations [value unit]...
		bench = $1
		sub(/-[0-9]+$/, "", bench) # -GOMAXPROCS suffix, when present
		sub(/^BenchmarkLinkYieldSweep\//, "sweep-", bench)
		sub(/^BenchmarkLinkYield\//, "", bench)
		sub(/^BenchmarkLinkYield/, "", bench) # slash-less top-level benches, e.g. SurfaceWarm
		sub(/^BenchmarkNormsInto\//, "norms-", bench)
		sub(/^BenchmarkLaneKernel\//, "kernel-", bench)
		split("", m)
		m["iterations"] = $2
		for (i = 3; i < NF; i += 2) {
			unit = $(i + 1)
			gsub(/[^A-Za-z0-9]/, "_", unit)
			m[unit] = $i
		}
		# samples/op is reported by the benchmarks precisely so the
		# -benchmem counters translate into per-sample rates.
		if (("allocs_op" in m) && ("samples_op" in m) && m["samples_op"] + 0 > 0) {
			m["allocs_per_sample"] = m["allocs_op"] / m["samples_op"]
			m["bytes_per_sample"] = m["B_op"] / m["samples_op"]
		}
		printf "%s{\"bench\":\"%s\",\"commit\":\"%s\"", (n++ ? ",\n" : "[\n"), bench, commit
		nk = split("iterations ns_op ns_sample ns_draw samples_op yield fail_prob var_reduction_x beta band conclusive_frac model_evals B_op allocs_op bytes_per_sample allocs_per_sample", keys, " ")
		for (i = 1; i <= nk; i++)
			if (keys[i] in m) printf ",\"%s\":%s", keys[i], m[keys[i]] + 0
		printf "}"
	}
	END {
		if (n) print "\n]"
		else { print "benchmark produced no samples" > "/dev/stderr"; exit 1 }
	}' >"$out"

echo "wrote $out:" >&2
cat "$out"

if [ -n "$ceiling" ]; then
	awk -v ceiling="$ceiling" -F'"allocs_per_sample":' '
		NF > 1 {
			split($2, a, /[,}]/)
			if (a[1] + 0 > ceiling + 0) {
				bad = 1
				print "allocs/sample " a[1] " exceeds ceiling " ceiling ": " $0 > "/dev/stderr"
			}
		}
		END { exit bad }' "$out"
	echo "allocs/sample within ceiling $ceiling" >&2
fi

if [ -n "$surface_ceiling" ]; then
	awk -v ceiling="$surface_ceiling" '
		/"bench":"SurfaceWarm"/ {
			seen = 1
			if (match($0, /"ns_op":[0-9.e+]+/)) {
				ns = substr($0, RSTART + 8, RLENGTH - 8)
				if (ns + 0 > ceiling + 0) {
					bad = 1
					print "warm-surface query " ns " ns/op exceeds ceiling " ceiling > "/dev/stderr"
				}
			}
		}
		END {
			if (!seen) { print "no SurfaceWarm benchmark in output" > "/dev/stderr"; exit 1 }
			exit bad
		}' "$out"
	echo "warm-surface ns/op within ceiling $surface_ceiling" >&2
fi

if [ -n "$ais_ceiling" ]; then
	awk -v ceiling="$ais_ceiling" '
		/"bench":"AIS"/ {
			seen = 1
			if (match($0, /"ns_sample":[0-9.e+]+/)) {
				ns = substr($0, RSTART + 12, RLENGTH - 12)
				if (ns + 0 > ceiling + 0) {
					bad = 1
					print "AIS " ns " ns/sample exceeds ceiling " ceiling > "/dev/stderr"
				}
			}
		}
		END {
			if (!seen) { print "no AIS benchmark in output" > "/dev/stderr"; exit 1 }
			exit bad
		}' "$out"
	echo "AIS ns/sample within ceiling $ais_ceiling" >&2
fi

if [ -n "$wcd_ceiling" ]; then
	awk -v ceiling="$wcd_ceiling" '
		/"bench":"WCDPrefilter"/ {
			seen = 1
			if (match($0, /"ns_op":[0-9.e+]+/)) {
				ns = substr($0, RSTART + 8, RLENGTH - 8)
				if (ns + 0 > ceiling + 0) {
					bad = 1
					print "WCD pre-filter " ns " ns/op exceeds ceiling " ceiling > "/dev/stderr"
				}
			}
		}
		END {
			if (!seen) { print "no WCDPrefilter benchmark in output" > "/dev/stderr"; exit 1 }
			exit bad
		}' "$out"
	echo "WCD pre-filter ns/op within ceiling $wcd_ceiling" >&2
fi

if [ -n "$coord_factor" ]; then
	awk -v factor="$coord_factor" '
		/"bench":"Coordinator\/direct"/ {
			if (match($0, /"ns_op":[0-9.e+]+/))
				direct = substr($0, RSTART + 8, RLENGTH - 8) + 0
		}
		/"bench":"Coordinator\/loopback"/ {
			if (match($0, /"ns_op":[0-9.e+]+/))
				loopback = substr($0, RSTART + 8, RLENGTH - 8) + 0
		}
		END {
			if (!direct || !loopback) {
				print "missing Coordinator/direct or Coordinator/loopback benchmark" > "/dev/stderr"
				exit 1
			}
			if (loopback > factor * direct) {
				printf "coordinator loopback %g ns/op exceeds %g x direct %g ns/op\n", loopback, factor, direct > "/dev/stderr"
				exit 1
			}
		}' "$out"
	echo "coordinator merge overhead within factor $coord_factor of direct" >&2
fi

if [ -n "$mc_ceiling" ]; then
	awk -v ceiling="$mc_ceiling" '
		/"bench":"mc-serial"/ {
			seen = 1
			if (match($0, /"ns_sample":[0-9.e+]+/)) {
				ns = substr($0, RSTART + 12, RLENGTH - 12)
				if (ns + 0 > ceiling + 0) {
					bad = 1
					print "mc-serial " ns " ns/sample exceeds ceiling " ceiling > "/dev/stderr"
				}
			}
		}
		END {
			if (!seen) { print "no mc-serial benchmark in output" > "/dev/stderr"; exit 1 }
			exit bad
		}' "$out"
	echo "mc-serial ns/sample within ceiling $mc_ceiling" >&2
fi

if [ -n "$mc_par_factor" ]; then
	awk -v factor="$mc_par_factor" '
		/"bench":"mc-serial"/ {
			if (match($0, /"ns_sample":[0-9.e+]+/))
				serial = substr($0, RSTART + 12, RLENGTH - 12) + 0
		}
		/"bench":"mc-parallel"/ {
			if (match($0, /"ns_sample":[0-9.e+]+/))
				parallel = substr($0, RSTART + 12, RLENGTH - 12) + 0
		}
		END {
			if (!serial || !parallel) {
				print "missing mc-serial or mc-parallel benchmark" > "/dev/stderr"
				exit 1
			}
			if (parallel > factor * serial) {
				printf "mc-parallel %g ns/sample exceeds %g x mc-serial %g ns/sample\n", parallel, factor, serial > "/dev/stderr"
				exit 1
			}
		}' "$out"
	echo "mc-parallel within factor $mc_par_factor of mc-serial" >&2
fi

if [ -n "$coord_allocs" ]; then
	awk -v ceiling="$coord_allocs" '
		/"bench":"Coordinator\/loopback"/ {
			seen = 1
			if (match($0, /"allocs_op":[0-9.e+]+/)) {
				a = substr($0, RSTART + 12, RLENGTH - 12)
				if (a + 0 > ceiling + 0) {
					bad = 1
					print "coordinator loopback " a " allocs/op exceeds ceiling " ceiling > "/dev/stderr"
				}
			}
		}
		END {
			if (!seen) { print "no Coordinator/loopback benchmark in output" > "/dev/stderr"; exit 1 }
			exit bad
		}' "$out"
	echo "coordinator loopback allocs/op within ceiling $coord_allocs" >&2
fi
