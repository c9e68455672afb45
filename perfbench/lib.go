package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	gatedclock "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/verify"
)

// layered is one route taken through the library one layer call at a
// time, as Design.Route and the serve pipeline chain them, with each
// call's wall time.
type layered struct {
	Generate, Profile, Route, Evaluate, VerifyTree, VerifyReport, Digest time.Duration
	AllocBytes, AllocObjects                                             uint64
	Stats                                                                core.Stats
	TreeDigest                                                           string
	Sinks                                                                int
}

// routeLayered synthesizes cfg, builds its activity profile, routes it
// under opts with a centralized controller, evaluates, verifies and
// digests the tree. Spans go to rec (nil: untraced) under request req.
// A verify failure is returned as an error.
func routeLayered(rec *recorder, req, parent int64, cfg bench.Config, opts gatedclock.Options) (*layered, error) {
	var out layered
	var b *bench.Benchmark
	var err error
	out.Generate = rec.timed("bench.generate", req, parent, func() { b, err = bench.Generate(cfg) })
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", cfg.Name, err)
	}
	var d *gatedclock.Design
	out.Profile = rec.timed("activity.profile", req, parent, func() { d, err = gatedclock.NewDesign(b) })
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", cfg.Name, err)
	}
	out.Sinks = b.NumSinks()
	c := ctrl.Centralized(b.Die)
	opts.Controller = c
	opts.Tracer = traceOrNil(rec)
	inst := &core.Instance{Die: b.Die, SinkLocs: b.SinkLocs, SinkCaps: b.SinkCaps, Profile: d.Profile}

	var tree *gatedclock.Tree
	before := readAllocs()
	id := rec.reserve()
	start := time.Now()
	tree, out.Stats, err = core.RouteContext(context.Background(), inst, opts)
	out.Route = time.Since(start)
	rec.finish(id, "core.route", req, parent, start)
	after := readAllocs()
	out.AllocBytes, out.AllocObjects = after[0]-before[0], after[1]-before[1]
	if err != nil {
		return nil, fmt.Errorf("route %s: %w", cfg.Name, err)
	}
	var rep power.Report
	out.Evaluate = rec.timed("power.evaluate", req, parent, func() { rep = power.Evaluate(tree, c, opts.Tech) })
	out.VerifyTree = rec.timed("verify.tree", req, parent, func() { err = verify.Tree(tree, opts.Tech, opts.SkewBoundPs) })
	if err != nil {
		return nil, fmt.Errorf("verify tree %s: %w", cfg.Name, err)
	}
	out.VerifyReport = rec.timed("verify.report", req, parent, func() { err = verify.Report(tree, c, opts.Tech, rep) })
	if err != nil {
		return nil, fmt.Errorf("verify report %s: %w", cfg.Name, err)
	}
	out.Digest = rec.timed("topology.digest", req, parent, func() { out.TreeDigest = tree.Digest() })
	return &out, nil
}

// routeBody re-routes a request body directly through the library, the
// check that a service answer matches what the library computes.
func routeBody(rec *recorder, req int64, body []byte) (*layered, error) {
	r, err := serve.DecodeRouteRequest(body)
	if err != nil {
		return nil, err
	}
	rr, err := r.Resolve()
	if err != nil {
		return nil, err
	}
	if rr.Stream != nil || rr.Controllers != 1 {
		return nil, fmt.Errorf("replay supports generated streams and one controller only")
	}
	opts := rr.Opts
	opts.Workers = 1 // as serve routes: one route per pool worker
	return routeLayered(rec, req, 0, rr.Cfg, opts)
}

// traceOrNil keeps a nil *recorder from becoming a non-nil obs.Tracer.
func traceOrNil(rec *recorder) gatedclock.Tracer {
	if rec == nil {
		return nil
	}
	return rec
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

// readAllocs returns the bytes and objects allocated on the heap so far.
func readAllocs() [2]uint64 {
	s := append([]metrics.Sample(nil), allocSamples...)
	metrics.Read(s)
	return [2]uint64{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// heapSampler tracks the peak in-use heap while armed.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	armed chan bool
	peak  uint64
}

// startHeapSampler samples the live heap every 5 ms until stop is called.
// Samples count only while armed, so checks run between timed calls stay
// out of the peak.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), armed: make(chan bool)}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		on := false
		for {
			select {
			case <-h.stop:
				return
			case on = <-h.armed:
			case <-t.C:
			}
			if on {
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) arm(on bool) { h.armed <- on }

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
