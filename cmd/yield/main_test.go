package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRunSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-tech", "90nm", "-length", "5", "-n", "512", "-seed", "1"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run failed: %v (stderr: %s)", err, errOut.String())
	}
	for _, want := range []string{"90nm", "buffering:", "yield:", "plain Monte Carlo", "512 samples"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunDeterministicAcrossWorkers pins the CLI-visible guarantee:
// -j 1 and -j 8 print byte-identical reports for the same seed.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	outputs := make([]string, 2)
	for i, j := range []string{"1", "8"} {
		var out, errOut bytes.Buffer
		err := run([]string{"-tech", "90nm", "-length", "5", "-n", "1024", "-seed", "7", "-j", j}, &out, &errOut)
		if err != nil {
			t.Fatalf("-j %s: %v", j, err)
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("-j 1 and -j 8 reports differ:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

// TestRunImportanceSamplingFlag: the ISLE-style importance sampler is
// asked for by rung name and the report names it.
func TestRunImportanceSamplingFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-tech", "90nm", "-length", "5", "-n", "512", "-estimator", "isle", "-target", "520"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !strings.Contains(out.String(), "importance sampling") {
		t.Errorf("-estimator isle report does not name the estimator:\n%s", out.String())
	}
}

// TestRunCandidatesSweep exercises the -candidates batch mode: the
// listed buffering solutions are scored on shared samples and each
// gets a report line.
func TestRunCandidatesSweep(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-tech", "90nm", "-length", "5", "-n", "512", "-seed", "1",
		"-target", "520", "-candidates", "8:10, 12:8"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run failed: %v (stderr: %s)", err, errOut.String())
	}
	for _, want := range []string{"2 candidates on shared samples", "INVD8", "INVD12", "512 samples"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunCandidatesDeterministicAcrossWorkers: the shared-sample sweep
// keeps the CLI's byte-identical -j guarantee.
func TestRunCandidatesDeterministicAcrossWorkers(t *testing.T) {
	outputs := make([]string, 2)
	for i, j := range []string{"1", "8"} {
		var out, errOut bytes.Buffer
		err := run([]string{"-tech", "90nm", "-length", "5", "-n", "1024", "-seed", "7",
			"-target", "520", "-candidates", "8:10,12:8,16:6", "-j", j}, &out, &errOut)
		if err != nil {
			t.Fatalf("-j %s: %v", j, err)
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("-j 1 and -j 8 candidate reports differ:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

func TestRunBadCandidates(t *testing.T) {
	for name, spec := range map[string]string{
		"no-colon":    "8x10",
		"bad-size":    "eight:10",
		"bad-count":   "8:ten",
		"empty-pairs": " , ,",
	} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-tech", "90nm", "-length", "5", "-candidates", spec}, &out, &errOut); err == nil {
			t.Errorf("%s: malformed -candidates %q accepted", name, spec)
		}
	}
}

// TestRunCandidatesOverRepeaterBound: a candidate with more repeaters
// than the buffering search's bound (buffering.MaxN, 64) exits with an
// error naming the bound, promptly — a line's evaluation walks every
// stage, so a billion-stage candidate used to sample for minutes.
func TestRunCandidatesOverRepeaterBound(t *testing.T) {
	var out, errOut bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-tech", "90nm", "-length", "5", "-n", "512", "-candidates", "8:1000000000"}, &out, &errOut)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "1000000000 repeaters over the bound of 64 (buffering.MaxN)") {
			t.Fatalf("err = %v, want the repeater bound named (stdout %q)", err, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("-candidates 8:1000000000 gave no answer within 5 s")
	}
}

// TestRunBadFlag: a malformed value and the retired -sampler and -is
// flags are flag errors, not silently ignored (the sampler is not a
// user choice; the ISLE rung is -estimator isle).
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "not-a-number"},
		{"-sampler", "box-muller"},
		{"-is"},
	} {
		var out, errOut bytes.Buffer
		if err := run(append([]string{"-tech", "90nm", "-n", "64"}, args...), &out, &errOut); err == nil || out.Len() != 0 {
			t.Errorf("%v: err = %v, want a flag error before any run (stdout %q)", args, err, out.String())
		}
	}
}

func TestRunUnknownTech(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-tech", "13nm"}, &out, &errOut); err == nil {
		t.Fatal("unknown technology accepted")
	}
}

// TestRunTimeoutCancelsPromptly pins the acceptance criterion: an
// absurdly large sample budget under -timeout 1ms exits promptly with
// a cancellation error instead of grinding through the budget.
func TestRunTimeoutCancelsPromptly(t *testing.T) {
	var out, errOut bytes.Buffer
	start := time.Now()
	err := run([]string{"-tech", "90nm", "-length", "5", "-n", "100000000", "-seed", "1", "-timeout", "1ms"}, &out, &errOut)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt exit", elapsed)
	}
}

// TestRunTimeoutUnexpiredBitIdentical pins the other half: a deadline
// that never fires changes nothing — the report is byte-identical to
// the deadline-free run for the same seed.
func TestRunTimeoutUnexpiredBitIdentical(t *testing.T) {
	args := []string{"-tech", "90nm", "-length", "5", "-n", "1024", "-seed", "7"}
	var ref, refErr bytes.Buffer
	if err := run(args, &ref, &refErr); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run(append(args, "-timeout", "10m"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if out.String() != ref.String() {
		t.Fatalf("-timeout 10m report differs from deadline-free run:\n%s\nvs\n%s", out.String(), ref.String())
	}
}

// TestRunMetricsSnapshot checks the -metrics dump: valid JSON on
// stderr with a nonzero samples-drawn counter after a real run.
func TestRunMetricsSnapshot(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-tech", "90nm", "-length", "5", "-n", "512", "-seed", "1", "-metrics"}, &out, &errOut); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(errOut.Bytes(), &snap); err != nil {
		t.Fatalf("-metrics stderr is not JSON: %v\n%s", err, errOut.String())
	}
	if snap["variation.samples_drawn"] < 512 {
		t.Fatalf("samples-drawn counter %d, want >= 512\n%s", snap["variation.samples_drawn"], errOut.String())
	}
	if snap["pool.runs"] == 0 {
		t.Fatalf("pool.runs counter zero\n%s", errOut.String())
	}
}

// TestRunDebugAddr checks that -debug-addr brings the endpoint up for
// the run and announces where it bound.
func TestRunDebugAddr(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-tech", "90nm", "-length", "5", "-n", "512", "-seed", "1", "-debug-addr", "127.0.0.1:0"}, &out, &errOut); err != nil {
		t.Fatalf("run failed: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(errOut.String(), "debug endpoint on http://127.0.0.1:") {
		t.Fatalf("bound address not announced: %s", errOut.String())
	}
}
