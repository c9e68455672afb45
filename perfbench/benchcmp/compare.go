package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one benchmark run: its workload, seed and metric values.
type run struct {
	Workload string
	Seed     uint64
	Values   map[string]float64
}

// readRun parses one captured standard output of the benchmark: the last
// line is the result, the line before it the run's metadata.
func readRun(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(lines) < 2 {
		return run{}, fmt.Errorf("%s: want a metadata line and a result line", path)
	}
	var meta struct {
		Meta struct {
			Workload string `json:"workload"`
			Seed     uint64 `json:"seed"`
		} `json:"meta"`
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &meta); err != nil || meta.Meta.Workload == "" {
		return run{}, fmt.Errorf("%s: no metadata line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return run{}, fmt.Errorf("%s: result line: %w", path, err)
	}
	if !res.Correct {
		return run{}, fmt.Errorf("%s: run reported incorrect output", path)
	}
	r := run{Workload: meta.Meta.Workload, Seed: meta.Meta.Seed, Values: map[string]float64{}}
	for k, v := range res.Metrics {
		r.Values[k] = v.Value
	}
	return r, nil
}

// readRuns reads every *.out file in dir.
func readRuns(dir string) ([]run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no *.out run files", dir)
	}
	sort.Strings(paths)
	var runs []run
	for _, p := range paths {
		r, err := readRun(p)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// Verdicts of one metric on one workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// row is the comparison of one metric on one workload.
type row struct {
	Workload, Metric string
	Base, Head       summary
	Delta            float64 // (head − base) / base median; + is worse
	Spread           float64 // larger of the two sides' quartile spreads
	Bound            float64
	Verdict          string
}

// summary is one side's median and quartile spread (Q3 − Q1) / median.
type summary struct {
	N              int
	Median, Spread float64
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default exclusive method.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := float64(n + 1)
		j := int(math.Floor(p * m))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := p*m - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func summarize(vals []float64) summary {
	q1, med, q3 := quartiles(vals)
	sp := 0.0
	if med != 0 {
		sp = math.Abs(q3-q1) / math.Abs(med)
	}
	return summary{N: len(vals), Median: med, Spread: sp}
}

// judge compares one metric's runs. A metric counts as regressed when the
// head median is worse than the base median by more than the bound; as
// unresolved when either side's own spread is wider than the bound, unless
// every head run beats every base run; and as improved when every head
// run beats every base run, or when the head wins at least nine tenths of
// the seed-paired runs and the medians differ by more than the base's own
// spread.
func judge(base, head map[uint64]float64, m metricSpec) (summary, summary, float64, string) {
	bv, hv := values(base), values(head)
	b, h := summarize(bv), summarize(hv)
	worse := 0.0
	if b.Median != 0 {
		worse = (h.Median - b.Median) / math.Abs(b.Median)
	}
	if m.Better == "higher" {
		worse = -worse
	}
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := len(bv) > 1 && len(hv) > 1
	for _, x := range hv {
		for _, y := range bv {
			allBetter = allBetter && better(x, y)
		}
	}
	wins, pairs := 0, 0
	for seed, y := range base {
		if x, ok := head[seed]; ok {
			pairs++
			if better(x, y) {
				wins++
			}
		}
	}
	spread := math.Max(b.Spread, h.Spread)
	switch {
	case allBetter:
		return b, h, worse, improved
	case spread > m.Bound:
		return b, h, worse, unresolved
	case worse > m.Bound:
		return b, h, worse, regressed
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && -worse > b.Spread:
		return b, h, worse, improved
	}
	return b, h, worse, unchanged
}

func values(m map[uint64]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// compare judges every end-to-end metric on every workload both sides ran.
func compare(sp spec, base, head []run) []row {
	type key struct{ w, m string }
	side := func(runs []run) map[key]map[uint64]float64 {
		out := map[key]map[uint64]float64{}
		for i, r := range runs {
			for _, m := range sp.EndToEnd {
				v, ok := r.Values[m.Name]
				if !ok {
					continue
				}
				k := key{r.Workload, m.Name}
				if out[k] == nil {
					out[k] = map[uint64]float64{}
				}
				seed := r.Seed
				if _, dup := out[k][seed]; dup {
					// A repeated seed still counts as a sample; it just
					// cannot be paired.
					seed = 1<<63 | uint64(i)
				}
				out[k][seed] = v
			}
		}
		return out
	}
	b, h := side(base), side(head)
	var rows []row
	var workloads []string
	seen := map[string]bool{}
	for _, r := range append(append([]run(nil), base...), head...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			k := key{w, m.Name}
			if len(b[k]) == 0 || len(h[k]) == 0 {
				continue
			}
			bs, hs, delta, verdict := judge(b[k], h[k], m)
			rows = append(rows, row{Workload: w, Metric: m.Name, Base: bs, Head: hs,
				Delta: delta, Spread: math.Max(bs.Spread, hs.Spread), Bound: m.Bound, Verdict: verdict})
		}
	}
	return rows
}
