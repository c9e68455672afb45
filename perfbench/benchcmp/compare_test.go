package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(vals, n=4).
	cases := []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func seeded(vals ...float64) map[uint64]float64 {
	m := map[uint64]float64{}
	for i, v := range vals {
		m[uint64(i+1)] = v
	}
	return m
}

func TestJudgeVerdicts(t *testing.T) {
	latency := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	rate := metricSpec{Name: "max_rate_rps", Better: "higher", Bound: 0.1}
	cases := []struct {
		name       string
		m          metricSpec
		base, head map[uint64]float64
		want       string
	}{
		{"same", latency, seeded(100, 101, 99, 100, 102), seeded(101, 100, 100, 99, 101), unchanged},
		{"within bound", latency, seeded(100, 101, 99, 100, 102), seeded(105, 106, 104, 105, 103), unchanged},
		{"slower beyond bound", latency, seeded(100, 101, 99, 100, 102), seeded(120, 121, 119, 120, 118), regressed},
		{"spread wider than bound", latency, seeded(60, 100, 140, 80, 120), seeded(65, 110, 150, 90, 125), unresolved},
		{"every head run better", latency, seeded(60, 100, 140, 80, 120), seeded(50, 55, 52, 58, 51), improved},
		{"paired wins beyond spread", latency, seeded(100, 101, 99, 100, 102), seeded(95, 96, 94, 95, 100), improved},
		{"rate falls beyond bound", rate, seeded(100, 101, 99, 100, 102), seeded(80, 81, 79, 80, 82), regressed},
		{"rate rises", rate, seeded(100, 101, 99, 100, 102), seeded(120, 121, 119, 120, 122), improved},
	}
	for _, c := range cases {
		if _, _, _, got := judge(c.base, c.head, c.m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReadsRunFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(side, name, workload string, seed int, p50 float64) {
		d := filepath.Join(dir, side)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "progress line\n" +
			`{"meta":{"workload":"` + workload + `","seed":` + itoa(seed) + `}}` + "\n" +
			`{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":` + ftoa(p50) + `,"unit":"ms"}}}` + "\n"
		if err := os.WriteFile(filepath.Join(d, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{10, 10.1, 9.9} {
		write("base", "a"+itoa(i)+".out", "cluster-zipf", i+1, v)
		write("head", "a"+itoa(i)+".out", "cluster-zipf", i+1, 2*v)
	}
	base, err := readRuns(filepath.Join(dir, "base"))
	if err != nil {
		t.Fatal(err)
	}
	head, err := readRuns(filepath.Join(dir, "head"))
	if err != nil {
		t.Fatal(err)
	}
	sp := spec{EndToEnd: []metricSpec{{Name: "p50_ms", Better: "lower", Bound: 0.2}}}
	rows := compare(sp, base, head)
	if len(rows) != 1 || rows[0].Workload != "cluster-zipf" || rows[0].Verdict != regressed {
		t.Fatalf("rows = %+v, want one regressed cluster-zipf row", rows)
	}
}

func itoa(i int) string     { return strconv.Itoa(i) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
