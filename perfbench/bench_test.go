package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		pct, v  float64
		defined bool
	}{
		{1000, 99, 990, true}, // 10 samples above p99
		{999, 95, 950, true},  // p99 would leave 9 above
		{100, 90, 90, true},   // exactly 10 above p90
		{99, 75, 75, true},    // p90 would leave 9 above
		{20, 50, 10, true},    // only the median qualifies
		{10000, 99.9, 9990, true},
		{10, 0, 0, false},
	}
	for _, c := range cases {
		pct, v, ok := tail(ramp(c.n))
		if ok != c.defined || pct != c.pct || v != c.v {
			t.Errorf("n=%d: tail = p%v %v (ok=%v), want p%v %v (ok=%v)", c.n, pct, v, ok, c.pct, c.v, c.defined)
		}
		if ok && beyond(c.n, pct) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, pct), pct)
		}
	}
}

func TestRungsAreJudgedAtAFixedPercentile(t *testing.T) {
	var shots []shot
	for i := 1; i <= 10000; i++ {
		shots = append(shots, shot{lat: time.Duration(i) * time.Microsecond})
	}
	if ps := summarise(2500, shots, 1, 250, 0); ps.TailPct != 99.9 {
		t.Errorf("tail rule on 10000 samples: p%v, want p99.9", ps.TailPct)
	}
	if ps := summarise(2500, shots, 1, 250, rungPct); ps.TailPct != 99 || ps.TailMs != ms(9900*time.Microsecond) {
		t.Errorf("rung tail on 10000 samples: p%v %v ms, want p99 9.9 ms", ps.TailPct, ps.TailMs)
	}
	// 100 samples leave one beyond p99, so the tail rule decides.
	if ps := summarise(10, shots[:100], 1, 250, rungPct); ps.TailPct != 90 {
		t.Errorf("rung tail on 100 samples: p%v, want p90", ps.TailPct)
	}
}

func TestFailedRequestsMissTheLimit(t *testing.T) {
	var shots []shot
	for i := 0; i < 200; i++ {
		shots = append(shots, shot{lat: time.Millisecond})
	}
	ok := summarise(10, shots, 1, 25, 0)
	if !ok.meets(25) || ok.TailMs != 1 {
		t.Fatalf("clean phase: %+v", ok)
	}
	for i := 0; i < 15; i++ {
		shots[i].fail = "status_429"
	}
	bad := summarise(10, shots, 1, 25, 0)
	if bad.meets(25) || bad.TailMs != 1 || bad.Failed != 15 || bad.Samples != 185 {
		t.Fatalf("phase with 15 refusals: %+v", bad)
	}
}

// TestNominalWithFailuresStillReports checks that a nominal phase in which
// about 2% of requests failed still yields finite latency figures over the
// answered ones, with the failures carried by ok_frac and the failed count.
func TestNominalWithFailuresStillReports(t *testing.T) {
	var shots []shot
	for i := 0; i < 6000; i++ {
		s := shot{lat: time.Duration(1+i%7) * time.Millisecond}
		if i%50 == 7 {
			s.fail = "status_429"
		}
		shots = append(shots, s)
	}
	res := newResult()
	if err := reportNominal(res, phaseRun{shots: shots, stats: summarise(300, shots, 4, 250, 0)}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p50_ms", "tail_ms", "ok_frac"} {
		if v := res.metrics[name]; math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
			t.Errorf("%s = %v, want a finite positive figure", name, v)
		}
	}
	if got := res.metrics["ok_frac"]; math.Abs(got-0.98) > 1e-9 {
		t.Errorf("ok_frac = %v, want 0.98", got)
	}
	if res.failed != 120 || res.attempted != 6000 || res.wrong {
		t.Errorf("attempted %d, failed %d, wrong %v; want 6000, 120, false", res.attempted, res.failed, res.wrong)
	}
}

// TestLaggingGeneratorInvalidatesTheRun checks that a nominal phase whose
// generator lag makes up more than half its latency reports nothing, and
// that a rung whose tail is mostly lag does not count as holding the limit.
func TestLaggingGeneratorInvalidatesTheRun(t *testing.T) {
	phase := func(lag time.Duration) phaseRun {
		var shots []shot
		for i := 0; i < 1000; i++ {
			shots = append(shots, shot{lag: lag, lat: lag + 2*time.Millisecond})
		}
		return phaseRun{shots: shots, stats: summarise(300, shots, 4, 250, 0)}
	}
	late := phase(3 * time.Millisecond) // 3 of every 5 ms are the generator's
	if err := reportNominal(newResult(), late); err == nil {
		t.Fatalf("lag making up 60%% of latency was accepted: %+v", late.stats)
	}
	if late.stats.meets(250) {
		t.Fatalf("a rung whose generator lagged counts as holding the limit: %+v", late.stats)
	}
	prompt := phase(time.Millisecond) // 1 of every 3 ms
	if err := reportNominal(newResult(), prompt); err != nil {
		t.Fatalf("lag making up a third of latency: %v", err)
	}
	if !prompt.stats.meets(250) {
		t.Fatalf("a prompt rung misses the limit: %+v", prompt.stats)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, phaseNominal, 100, 500)
	b := poissonSchedule(7, phaseNominal, 100, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different due times")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, phaseNominal, 100, 500)) {
		t.Fatal("different seeds gave the same due times")
	}
	if reflect.DeepEqual(a, poissonSchedule(7, phaseTraced, 100, 500)) {
		t.Fatal("different phases gave the same due times")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
	// 500 arrivals at 100/s span about five seconds.
	if end := a[len(a)-1]; end < 4*time.Second || end > 6*time.Second {
		t.Fatalf("500 arrivals at 100/s end at %v", end)
	}
}

func TestBodiesAreSeeded(t *testing.T) {
	a := clusterZipf.gen(3, phaseNominal, 400)
	if !reflect.DeepEqual(a, clusterZipf.gen(3, phaseNominal, 400)) {
		t.Error("same seed gave different bodies")
	}
	if reflect.DeepEqual(a, clusterZipf.gen(4, phaseNominal, 400)) {
		t.Error("different seeds gave the same bodies")
	}
	invalid := 0
	for _, rq := range a {
		if rq.invalid {
			invalid++
		}
	}
	if invalid != 400/invalidEvery {
		t.Errorf("%d invalid bodies in 400, want %d", invalid, 400/invalidEvery)
	}
}

func TestZipfDrawRepeatsHotBodies(t *testing.T) {
	pool := map[string]bool{}
	for _, rq := range zipfPoolOf(9) {
		pool[string(rq.body)] = true
	}
	count := map[string]int{}
	reqs := clusterZipf.gen(9, phaseNominal, 20000)
	fresh := 0
	for _, rq := range reqs {
		count[string(rq.body)]++
		if !rq.invalid && !pool[string(rq.body)] {
			fresh++
		}
	}
	hottest := string(zipfPoolOf(9)[0].body)
	// Rank 1 of a Zipf(1) draw over 2048 ranks gets about 12% of draws.
	if share := float64(count[hottest]) / float64(len(reqs)); share < 0.09 || share > 0.15 {
		t.Errorf("hottest body share %.3f, want about 0.12", share)
	}
	if share := float64(fresh) / float64(len(reqs)); share < zipfFresh*0.8 || share > zipfFresh*1.5 {
		t.Errorf("never-seen bodies: share %.3f, want about %.2f", share, zipfFresh)
	}
}

func TestMaxRateInterpolatesWhereTheTailCrossesTheLimit(t *testing.T) {
	pass := phaseStats{Rate: 100, TailMs: 10}
	miss := phaseStats{Rate: 200, TailMs: 40}
	// log(20/10)/log(40/10) = 0.5 of the way from 100 to 200.
	if got := maxRate([]phaseStats{miss, pass}, 20); math.Abs(got-150) > 1e-9 {
		t.Errorf("interpolated max rate %v, want 150", got)
	}
	refused := phaseStats{Rate: 200, TailMs: 40, Failed: 3}
	if got := maxRate([]phaseStats{pass, refused}, 20); math.Abs(got-150) > 1e-9 {
		t.Errorf("max rate below a refusing rung %v, want 150 from its answered tail", got)
	}
	refused.TailMs = 15
	if got := maxRate([]phaseStats{pass, refused}, 20); got != 100 {
		t.Errorf("max rate below a rung that only refusals failed %v, want 100", got)
	}
	top := phaseStats{Rate: 300, TailMs: 15}
	if got := maxRate([]phaseStats{pass, top}, 20); got != 300 {
		t.Errorf("max rate with every rung passing %v, want 300", got)
	}
	grew := phaseStats{Rate: 200, TailMs: 18, Growing: true}
	if got := maxRate([]phaseStats{pass, grew}, 20); got != 100 {
		t.Errorf("max rate below a rung whose backlog grew %v, want 100", got)
	}
	if got := maxRate([]phaseStats{miss}, 20); got != 0 {
		t.Errorf("max rate with no rung passing %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	rec := newRecorder()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := rec.add("request", 1, 0, at(0), at(100))
	front := rec.add("cluster.front", 1, root, at(5), at(95))
	// Hook spans carry no parent; containment links them.
	rec.add("serve.handler", 0, -1, at(10), at(90))
	rec.add("serve.queue", 0, -1, at(10), at(20))
	rec.add("serve.route", 0, -1, at(20), at(85))
	rec.add("core.greedy", 0, -1, at(30), at(80))
	self := rec.selfTimes()
	want := map[string]time.Duration{
		"request":       10 * time.Millisecond,
		"cluster.front": 10 * time.Millisecond,
		"serve.handler": 5 * time.Millisecond,
		"serve.queue":   10 * time.Millisecond,
		"serve.route":   15 * time.Millisecond,
		"core.greedy":   50 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	for _, s := range rec.spans {
		if s.Req != 1 {
			t.Errorf("span %s has request %d, want 1 (inherited through %d)", s.Name, s.Req, front)
		}
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw["end_to_end"], &b.EndToEnd); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %s is not one the benchmark runs (%v)", w.Name, workloads)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]string) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, printed) {
			t.Errorf("%s metrics in BENCHMARK.json %v, printed %v", kind, got, printed)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
