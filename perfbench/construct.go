package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	gatedclock "repro"
	"repro/internal/bench"
	"repro/internal/verify"
)

// constructSinks is the instance size of the construct workload: large
// enough that the greedy merge is nearly all of the route time, small
// enough that four instances route in about half a minute.
const constructSinks = 16384

// constructGolden holds the tree digests of the construct instances at
// defaultSeed, in bench.Placements() order.
var constructGolden = []string{
	"1ad719a8f9e256ea48120978ba806824681fc9248845514e0869a37d388d2422",
	"54d2a563203622ff278d5bca65daefa8c16e027b5f0bb43ef30405a39c33675d",
	"e68cd278d05f10667051e8daf7e79ef45f700bde354f7cb1a97cae81efa43997",
	"fe2efecdeae4e69a12d79456ba9b4c3f217012315a1f59524c06a1c9a23b3524",
}

// constructConfigs returns the four construct instances, one per
// placement, as `gcr -sinks 16384 -placement P -seed S` synthesizes them.
func constructConfigs(seed uint64) []bench.Config {
	var cfgs []bench.Config
	for _, p := range bench.Placements() {
		cfgs = append(cfgs, bench.Config{
			Name:      fmt.Sprintf("synth-%s-%d", p, constructSinks),
			NumSinks:  constructSinks,
			Seed:      seed,
			Placement: p,
		})
	}
	return cfgs
}

// constructSetup synthesizes the instances and builds their designs.
func constructSetup(cfgs []bench.Config) ([]*gatedclock.Design, error) {
	designs := make([]*gatedclock.Design, len(cfgs))
	for i, c := range cfgs {
		b, err := bench.Generate(c)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", c.Name, err)
		}
		if designs[i], err = gatedclock.NewDesign(b); err != nil {
			return nil, fmt.Errorf("design %s: %w", c.Name, err)
		}
	}
	return designs, nil
}

// setupReps is how many times a run sets up, so setup_s is a median.
const setupReps = 15

// runConstruct is the construct workload: one caller routes the four
// instances in turn with the gated-red options and the library's default
// worker count, exactly as `gcr -mode gated-red` does, in as many whole
// passes as fit the run's time.
func runConstruct(a args, res *result) error {
	cfgs := constructConfigs(a.seed)
	var designs []*gatedclock.Design
	var setups []float64
	for i := 0; i < setupReps; i++ {
		designs = nil
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		d, err := constructSetup(cfgs)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		designs = d
	}
	res.metric("setup_s", median(setups))

	if a.trace {
		return traceConstruct(a, res, cfgs, designs)
	}

	opts := gatedclock.GatedReducedOptions()
	heap := startHeapSampler()
	var routed int
	var routeTime time.Duration
	var lat []float64
	byInstance := map[string][]float64{}
	digests := make([]string, len(designs))
	budget := time.Duration(a.seconds) * time.Second
	begin := time.Now()
	passes := 1
	for pass := 0; pass < passes; pass++ {
		for i, d := range designs {
			// Each route starts from a collected heap, so its peak does
			// not depend on where the previous route left the collector.
			runtime.GC()
			heap.arm(true)
			start := time.Now()
			r, err := d.Route(opts)
			dur := time.Since(start)
			heap.arm(false)
			res.attempted++
			if err != nil {
				res.fail("route %s: %v", cfgs[i].Name, err)
				continue
			}
			routeTime += dur
			routed += len(d.Bench.SinkLocs)
			lat = append(lat, ms(dur))
			byInstance[cfgs[i].Name] = append(byInstance[cfgs[i].Name], ms(dur))
			if err := checkTree(r); err != nil {
				res.wrongAnswer("%s: %v", cfgs[i].Name, err)
				continue
			}
			dg := r.Tree.Digest()
			switch {
			case pass == 0:
				digests[i] = dg
			case dg != digests[i]:
				res.wrongAnswer("%s: digest %s differs from pass 0 (%s)", cfgs[i].Name, dg, digests[i])
			}
		}
		if pass == 0 {
			// The pass count is rounded to the nearest whole pass, so it
			// does not change when the first pass runs a little fast or
			// slow, and every run routes each instance equally often.
			passes = max(1, int(math.Round(float64(budget)/float64(time.Since(begin)))))
		}
	}
	peak := heap.finish()
	if a.seed == defaultSeed {
		for i, want := range constructGolden {
			if digests[i] != want {
				res.wrongAnswer("%s: digest %s, recorded %s", cfgs[i].Name, digests[i], want)
			}
		}
	}
	// The closed loop's latency is one Design.Route call. A run routes too
	// few instances for a percentile with ten samples beyond it, so its
	// tail is its slowest instance: the largest of the instances' median
	// route times, which unlike the slowest single route does not grow with
	// the number of passes. A run in which every route failed reports zeros
	// beside its failures.
	var slowest float64
	for _, v := range byInstance {
		slowest = max(slowest, median(v))
	}
	res.metric("sinks_per_s", ratio(float64(routed), routeTime.Seconds()))
	res.metric("heap_peak_mb", peak)
	res.metric("p50_ms", median(lat))
	res.metric("tail_ms", slowest)
	res.metric("max_rate_rps", ratio(float64(len(lat)), routeTime.Seconds()))
	res.metric("ok_frac", 1-ratio(float64(res.failed), float64(res.attempted)))
	res.detail("samples", len(lat))
	res.detail("route_ms", byInstance)
	res.detail("route_s", routeTime.Seconds())
	res.detail("tree_digests", digests)
	return nil
}

// checkTree runs the independent checker on a routed result.
func checkTree(r *gatedclock.Result) error {
	if err := verify.Tree(r.Tree, r.Options.Tech, r.Options.SkewBoundPs); err != nil {
		return err
	}
	return verify.Report(r.Tree, r.Controller, r.Options.Tech, r.Report)
}

// traceConstruct routes each instance once through the library layer by
// layer, recording spans, and times one untraced Design.Route of the
// first instance to price the tracing.
func traceConstruct(a args, res *result, cfgs []bench.Config, designs []*gatedclock.Design) error {
	opts := gatedclock.GatedReducedOptions()
	start := time.Now()
	if _, err := designs[0].Route(opts); err != nil {
		return err
	}
	untraced := time.Since(start)

	rec := newRecorder()
	var runs []*layered
	for i, c := range cfgs {
		id := rec.reserve()
		t0 := time.Now()
		l, err := routeLayered(rec, int64(i+1), id, c, opts)
		rec.finish(id, "request", int64(i+1), 0, t0)
		res.attempted++
		if err != nil {
			res.wrongAnswer("%v", err)
			continue
		}
		if a.seed == defaultSeed && l.TreeDigest != constructGolden[i] {
			res.wrongAnswer("%s: digest %s, recorded %s", c.Name, l.TreeDigest, constructGolden[i])
		}
		runs = append(runs, l)
	}
	if len(runs) == 0 {
		return fmt.Errorf("no construct route succeeded")
	}
	traced := runs[0].Route + runs[0].Evaluate
	res.metric("obs.trace_overhead_frac", ratio(float64(traced-untraced), float64(untraced)))
	res.metric("loadgen.inflight_max", 1) // one closed-loop caller
	coreMetrics(res, runs)
	libMetrics(res, runs)
	return finishTrace(a, res, rec, len(cfgs))
}
