package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareCmd prints, for every workload and metric both result files
// carry, the medians and the verdict of judge under BENCHMARK.json's
// bounds: A is the baseline, B the candidate.
func compareCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [-benchmark BENCHMARK.json] A.json B.json")
	}
	var bf benchmarkFile
	if err := readJSON(*benchPath, &bf); err != nil {
		return err
	}
	var a, b report
	if err := readJSON(fs.Arg(0), &a); err != nil {
		return err
	}
	if err := readJSON(fs.Arg(1), &b); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "A %s seed %d, %s on %d CPUs\nB %s seed %d, %s on %d CPUs\n",
		a.Commit, a.Seed, a.CPUModel, a.NProc, b.Commit, b.Seed, b.CPUModel, b.NProc)
	fmt.Fprintf(stdout, "%-11s %-42s %14s %14s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "verdict")
	for _, wb := range b.Workloads {
		var wa *workloadReport
		for i := range a.Workloads {
			if a.Workloads[i].Name == wb.Name {
				wa = &a.Workloads[i]
			}
		}
		if wa == nil {
			continue
		}
		for _, d := range append(bf.EndToEnd, bf.PerLayer...) {
			sa, okA := wa.Metrics[d.Name]
			sb, okB := wb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			change := 0.0
			if sa.Median != 0 {
				change = (sb.Median - sa.Median) / sa.Median * 100
			}
			fmt.Fprintf(stdout, "%-11s %-42s %14.6g %14.6g %+7.1f%%  %s\n",
				wb.Name, d.Name, sa.Median, sb.Median, change, judge(sa.Runs, sb.Runs, d.Better, d.Bound))
		}
	}
	return nil
}
