// Command benchcmp compares two sets of benchmark runs, per workload and
// per end-to-end metric, against the bounds BENCHMARK.json records.
//
//	cd perfbench && go run ./benchcmp -spec ../BENCHMARK.json -base runs/parent -head runs/change
//
// Each directory holds one *.out file per run: the captured standard
// output of `bash perfbench/run.sh --workload W --seed S ...`. Runs of the
// same seed on both sides are paired. A metric is "unresolved" where the
// run-to-run spread is wider than its bound. The exit status is 1 when any
// metric regressed, 2 on bad input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark's BENCHMARK.json")
	baseDir := flag.String("base", "", "directory of the parent's run outputs")
	headDir := flag.String("head", "", "directory of the change's run outputs")
	flag.Parse()
	rows, err := load(*specPath, *baseDir, *headDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if writeTable(os.Stdout, rows) {
		os.Exit(1)
	}
}

func load(specPath, baseDir, headDir string) ([]row, error) {
	if baseDir == "" || headDir == "" {
		return nil, fmt.Errorf("need -base and -head")
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRuns(baseDir)
	if err != nil {
		return nil, err
	}
	head, err := readRuns(headDir)
	if err != nil {
		return nil, err
	}
	rows := compare(sp, base, head)
	if len(rows) == 0 {
		return nil, fmt.Errorf("no workload and metric appears on both sides")
	}
	return rows, nil
}

// writeTable writes the comparison table and reports whether anything
// regressed.
func writeTable(w io.Writer, rows []row) (regression bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\thead median\tdelta (+ worse)\tspread\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g (n=%d)\t%.4g (n=%d)\t%+.1f%%\t%.1f%%\t%.1f%%\t%s\n",
			r.Workload, r.Metric, r.Base.Median, r.Base.N, r.Head.Median, r.Head.N,
			100*r.Delta, 100*r.Spread, 100*r.Bound, r.Verdict)
		regression = regression || r.Verdict == regressed
	}
	tw.Flush()
	return regression
}
