package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// request is one generated body, the sinks it asks to route, and whether
// it is deliberately invalid (and so must be answered 400).
type request struct {
	body    []byte
	sinks   int
	invalid bool
}

// serviceSpec describes an open-loop service workload.
type serviceSpec struct {
	limitMs float64   // the latency limit a rung's p99 must meet
	ladder  []float64 // offered rates (req/s), ascending
	nominal int       // index of the nominal rate in ladder
	// maxInflight caps outstanding requests; it sits above what the
	// target can queue, so overload shows as the target's own 429s first.
	maxInflight int
	// checks is how many answers are re-routed through the library after
	// the run.
	checks int
	// start builds the target and warms it. rec, when non-nil, receives
	// the target's own trace hooks.
	start func(seed uint64, rec *recorder) (*target, error)
	// gen returns the n requests of one phase, a function of the seed and
	// phase only.
	gen func(seed, phase uint64, n int) []request
}

// target is a running system under test.
type target struct {
	handler  http.Handler    // where load is sent
	front    string          // span name of the handler call
	servers  []*serve.Server // whose serve_* counters to read
	registry *obs.Registry   // the front tier's cluster_* counters, if any
	close    func()
}

// Phase streams keep the schedules and bodies of a run's phases apart.
const (
	phaseNominal uint64 = 1 + iota
	phaseWarm
	phaseTraced
	phaseUntraced
	phaseRung // + rung index
)

// rungPct is the percentile at which every rung's tail is held to the
// latency limit. The tail rule would judge busier rungs, which have more
// samples, at p99.9 and quieter ones at p99, and the p99.9 of a rung rests
// on ten-odd samples; one fixed percentile keeps the rungs comparable and
// max_rate_rps steady.
const rungPct = 99

// nominalShare and rungShare split a run's time between the nominal phase
// and each ladder rung above or below it.
const (
	nominalShare = 0.45
	rungShare    = 0.045
)

// checker classifies answers and keeps the per-request-digest map of
// tree digests, so two different trees for one request show as a
// conflict.
type checker struct {
	mu    sync.Mutex
	trees map[string]string
}

func newChecker() *checker {
	return &checker{trees: map[string]string{}}
}

// answer is the part of a RouteResponse the checks read.
type answer struct {
	Digest     string  `json:"digest"`
	TreeDigest string  `json:"treeDigest"`
	Cached     bool    `json:"cached"`
	Coalesced  bool    `json:"coalesced"`
	RouteMs    float64 `json:"routeMs"`
}

// classify turns one HTTP answer into a reply; tree returns the answered
// tree digest for the post-run re-route check.
func (c *checker) classify(rq request, code int, hdr http.Header, body []byte) (r reply, tree string) {
	r.invalid = rq.invalid
	r.source = hdr.Get("X-Cluster-Source")
	switch {
	case rq.invalid && code == http.StatusBadRequest:
		return r, ""
	case rq.invalid:
		r.fail = fmt.Sprintf("invalid_answered_%d", code)
		return r, ""
	case code != http.StatusOK:
		r.fail = fmt.Sprintf("status_%d", code)
		return r, ""
	}
	var ans answer
	if err := json.Unmarshal(body, &ans); err != nil || ans.TreeDigest == "" {
		r.fail = "undecodable"
		return r, ""
	}
	c.mu.Lock()
	prev, seen := c.trees[ans.Digest]
	if !seen {
		c.trees[ans.Digest] = ans.TreeDigest
	}
	c.mu.Unlock()
	if seen && prev != ans.TreeDigest {
		r.fail = "digest_conflict"
		return r, ans.TreeDigest
	}
	if !ans.Cached && !ans.Coalesced {
		r.routedSinks, r.routeMs = rq.sinks, ans.RouteMs
	}
	return r, ans.TreeDigest
}

// post sends one body through h in process and returns the answer.
func post(h http.Handler, body []byte) (int, http.Header, []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/route", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Header(), w.Body.Bytes()
}

// requestTimeout bounds one request; a request that runs out of it fails.
const requestTimeout = 20 * time.Second

// phaseRun is one executed open-loop phase.
type phaseRun struct {
	reqs  []request
	shots []shot
	trees []string
	stats phaseStats
}

// runPhase offers n = rate × dur requests of phase at rate per second.
func runPhase(spec serviceSpec, t *target, chk *checker, rec *recorder, seed, phase uint64, rate float64, dur time.Duration, pct float64) phaseRun {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	sched := poissonSchedule(seed, phase, rate, n)
	reqs := spec.gen(seed, phase, n)
	trees := make([]string, n)
	shots, inflight := openLoop(sched, spec.maxInflight, func(i int) (reply, time.Time) {
		rid := int64(phase)<<32 | int64(i+1)
		root := rec.reserve()
		start := time.Now()
		var code int
		var hdr http.Header
		var body []byte
		rec.timed(t.front, rid, root, func() { code, hdr, body = post(t.handler, reqs[i].body) })
		done := time.Now()
		rec.finish(root, "request", rid, 0, start)
		r, tree := chk.classify(reqs[i], code, hdr, body)
		trees[i] = tree
		return r, done
	})
	return phaseRun{reqs: reqs, shots: shots, trees: trees, stats: summarise(rate, shots, inflight, spec.limitMs, pct)}
}

// runService runs a service workload: set-up (several times, for a median
// setup_s), the nominal phase, the rate ladder, and the re-route checks.
func runService(a args, res *result, spec serviceSpec) error {
	var rec *recorder
	if a.trace {
		rec = newRecorder()
		rec.on.Store(false)
	}
	var t *target
	var setups []float64
	for i := 0; i < serviceSetupReps; i++ {
		if t != nil {
			t.close()
		}
		start := time.Now()
		var err error
		if t, err = spec.start(a.seed, rec); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.close()
	res.metric("setup_s", median(setups))
	chk := newChecker()
	total := time.Duration(a.seconds) * time.Second
	nominalDur := time.Duration(float64(total) * nominalShare)
	rate := spec.ladder[spec.nominal]

	if a.trace {
		return traceService(a, res, spec, t, chk, rec, nominalDur)
	}

	heap := startHeapSampler()
	heap.arm(true)
	nom := runPhase(spec, t, chk, nil, a.seed, phaseNominal, rate, nominalDur, 0)
	heap.arm(false)
	res.metric("heap_peak_mb", heap.finish())
	if err := reportNominal(res, nom); err != nil {
		return err
	}

	// The ladder climbs from the nominal rate while rungs hold the limit,
	// or descends from it when the nominal rate already misses it. Every
	// rung, the nominal one too, is judged at the same percentile.
	rungDur := time.Duration(float64(total) * rungShare)
	rungs := []phaseStats{summarise(rate, nom.shots, nom.stats.Inflight, spec.limitMs, rungPct)}
	up := rungs[0].meets(spec.limitMs)
	for k := spec.nominal; ; {
		if up {
			k++
		} else {
			k--
		}
		if k < 0 || k >= len(spec.ladder) {
			break
		}
		ps := runPhase(spec, t, chk, nil, a.seed, phaseRung+uint64(k), spec.ladder[k], rungDur, rungPct).stats
		rungs = append(rungs, ps)
		if ps.meets(spec.limitMs) != up {
			break
		}
	}
	res.metric("max_rate_rps", maxRate(rungs, spec.limitMs))
	res.detail("rungs", rungs)
	res.detail("limit_ms", spec.limitMs)
	recheck(res, spec, nom, a.seed, nil)
	return nil
}

// reportNominal reports the nominal phase's metrics. Latency is over the
// answered requests; the failed ones show in ok_frac and in the run's
// failed count, so a run with failures still prints its result. A phase
// whose generator fell behind its schedule measured the generator, and
// the run reports nothing.
func reportNominal(res *result, nom phaseRun) error {
	if ps := nom.stats; !ps.ownMedian() || !ps.ownTail() {
		return fmt.Errorf("invalid run: at the nominal rate the system's own time (p50 %.3f ms, p%v %.2f ms) is under %v of the latency (%.3f ms, %.2f ms); generator lag makes up the rest",
			ps.OwnP50Ms, ps.TailPct, ps.OwnTailMs, ownShare, ps.P50Ms, ps.TailMs)
	}
	countShots(res, nom.shots)
	res.metric("p50_ms", nom.stats.P50Ms)
	res.metric("tail_ms", nom.stats.TailMs)
	res.metric("ok_frac", 1-ratio(float64(nom.stats.Failed), float64(nom.stats.Attempted)))
	// The router's own throughput behind the service, from the fresh
	// routes the answers led and the route time the service reported.
	res.metric("sinks_per_s", nom.stats.RouteSinksPerS)
	res.detail("nominal", nom.stats)
	return nil
}

// serviceSetupReps is how many times a service run sets up, so setup_s
// is a median.
const serviceSetupReps = 3

// countShots adds a phase's requests to the run's attempted and failed.
func countShots(res *result, shots []shot) {
	for i, s := range shots {
		res.attempted++
		switch s.fail {
		case "":
		case "digest_conflict", "invalid_answered_200", "undecodable":
			res.wrongAnswer("request %d: %s", i, s.fail)
		default:
			res.fail("request %d: %s", i, s.fail)
		}
	}
}

// recheck re-routes a seeded sample of a phase's answered requests
// directly through the library, which must give the same tree digests.
// It returns the library runs, whose layer timings the traced run reports.
func recheck(res *result, spec serviceSpec, ph phaseRun, seed uint64, rec *recorder) []*layered {
	var answered []int
	seen := map[string]bool{}
	for i, tree := range ph.trees {
		if tree != "" && !seen[string(ph.reqs[i].body)] {
			seen[string(ph.reqs[i].body)] = true
			answered = append(answered, i)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
	rng.Shuffle(len(answered), func(a, b int) { answered[a], answered[b] = answered[b], answered[a] })
	if len(answered) > spec.checks {
		answered = answered[:spec.checks]
	}
	sort.Ints(answered)
	var runs []*layered
	for _, i := range answered {
		res.attempted++
		l, err := routeBody(rec, int64(i+1), ph.reqs[i].body)
		switch {
		case err != nil:
			res.wrongAnswer("re-route of request %d: %v", i, err)
		case l.TreeDigest != ph.trees[i]:
			res.wrongAnswer("request %d: service tree %s, library tree %s", i, ph.trees[i], l.TreeDigest)
		default:
			runs = append(runs, l)
		}
	}
	return runs
}

// counters sums the serve_* counters over a target's servers and adds the
// front tier's cluster_* counters.
func (t *target) counters() map[string]int64 {
	out := map[string]int64{}
	add := func(snap obs.Snapshot) {
		for name, s := range snap {
			if s.Kind == obs.KindCounter {
				out[name] += s.Value
			}
		}
	}
	for _, s := range t.servers {
		add(s.Metrics().Snapshot())
	}
	if t.registry != nil {
		add(t.registry.Snapshot())
	}
	return out
}

// delta subtracts two counter readings.
func delta(after, before map[string]int64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = float64(v - before[k])
	}
	return out
}

// traceService runs the nominal rate twice, half the nominal time each:
// untraced, then with spans recorded, and reports per-layer metrics.
func traceService(a args, res *result, spec serviceSpec, t *target, chk *checker, rec *recorder, dur time.Duration) error {
	rate := spec.ladder[spec.nominal]
	plain := runPhase(spec, t, chk, nil, a.seed, phaseUntraced, rate, dur/2, 0)
	countShots(res, plain.shots)
	before := t.counters()
	rec.on.Store(true)
	traced := runPhase(spec, t, chk, rec, a.seed, phaseTraced, rate, dur/2, 0)
	rec.on.Store(false)
	c := delta(t.counters(), before)
	countShots(res, traced.shots)

	res.metric("loadgen.lag_ms", plain.stats.LagP99Ms)
	res.metric("loadgen.inflight_max", float64(plain.stats.Inflight))
	res.metric("obs.trace_overhead_frac", ratio(traced.stats.P50Ms-plain.stats.P50Ms, plain.stats.P50Ms))
	res.detail("untraced", plain.stats)
	res.detail("traced", traced.stats)

	queue := rec.durations("serve.queue")
	res.metric("serve.queue_wait_p50_ms", median(queue))
	if _, v, ok := tail(queue); ok {
		res.metric("serve.queue_wait_tail_ms", v)
	}
	res.metric("serve.route_ms", mean(rec.durations("serve.route")))
	res.metric("serve.hit_ratio", ratio(c["serve_cache_hits_total"], c["serve_requests_total"]))
	res.metric("serve.coalesced", c["serve_coalesced_total"])
	res.metric("serve.shed", c["serve_shed_total"])
	if t.registry != nil {
		req := c["cluster_requests_total"]
		res.metric("cluster.l1_hit_ratio", ratio(c["cluster_l1_hits_total"], req))
		res.metric("cluster.l2_hit_ratio", ratio(c["cluster_l2_hits_total"], req))
		// Every L1 miss that found a live shard peeked at its owner first.
		peeks := req - c["cluster_bad_requests_total"] - c["cluster_l1_hits_total"] - c["cluster_no_shards_total"]
		res.metric("cluster.peek_useful_ratio", ratio(c["cluster_l2_hits_total"], peeks))
		res.metric("cluster.peer_hit_ratio", ratio(c["cluster_peer_hits_total"], req))
		res.metric("cluster.forward_ratio", ratio(c["cluster_forwards_total"], req))
		res.metric("cluster.failovers", c["cluster_failovers_total"])
		bySource := map[string][]float64{}
		for _, s := range plain.shots {
			if s.fail == "" && !s.invalid {
				bySource[s.source] = append(bySource[s.source], ms(s.lat))
			}
		}
		res.metric("cluster.l1_us", 1000*median(bySource["l1"]))
		res.metric("cluster.forward_ms", median(bySource["shard"]))
		res.detail("sources", map[string]int{"l1": len(bySource["l1"]), "l2": len(bySource["l2"]), "peer": len(bySource["peer"]), "shard": len(bySource["shard"])})
	}

	// Library replay of sampled answers gives the layer calls a route makes.
	if runs := recheck(res, spec, traced, a.seed, nil); len(runs) > 0 {
		libMetrics(res, runs)
		coreMetrics(res, runs)
	}
	// The live service's phase times, under load, replace the replay's.
	if greedy := rec.durations("core.greedy"); len(greedy) > 0 {
		init, embed := mean(rec.durations("core.init")), mean(rec.durations("core.embed"))
		res.metric("core.init_ms", init)
		res.metric("core.greedy_ms", mean(greedy))
		res.metric("core.embed_ms", embed)
		res.metric("core.route_ms", init+mean(greedy)+embed)
	}
	if err := finishTrace(a, res, rec, len(traced.shots)); err != nil {
		return err
	}
	return hitPathMetrics(res, traced, a.seed)
}

// hitPathMetrics times the calls a cache hit makes — decode, resolve,
// request digest, response encode, and a whole handler call answered from
// the cache — on a seeded sample of the traced phase's valid bodies.
func hitPathMetrics(res *result, ph phaseRun, seed uint64) error {
	var bodies [][]byte
	seen := map[string]bool{}
	for i, rq := range ph.reqs {
		if !rq.invalid && ph.trees[i] != "" && !seen[string(rq.body)] {
			seen[string(rq.body)] = true
			bodies = append(bodies, rq.body)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xbeef))
	rng.Shuffle(len(bodies), func(a, b int) { bodies[a], bodies[b] = bodies[b], bodies[a] })
	if len(bodies) > hitSamples {
		bodies = bodies[:hitSamples]
	}
	srv := serve.New(serve.Config{})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	var dec, resv, dig, enc, hit []float64
	for _, body := range bodies {
		if code, _, _ := post(h, body); code != http.StatusOK {
			return fmt.Errorf("priming the hit-path server: status %d", code)
		}
		var req *serve.RouteRequest
		var rr *serve.Resolved
		var digest string
		var err error
		dec = append(dec, perCallUs(func() { req, err = serve.DecodeRouteRequest(body) }))
		if err != nil {
			return err
		}
		resv = append(resv, perCallUs(func() { rr, err = req.Resolve() }))
		if err != nil {
			return err
		}
		dig = append(dig, perCallUs(func() { digest = rr.Digest() }))
		_, _, cached := post(h, body)
		var ce struct {
			Cached bool `json:"cached"`
		}
		if json.Unmarshal(cached, &ce) != nil || !ce.Cached {
			return fmt.Errorf("hit-path server did not answer from its cache")
		}
		result := resultFromWire(cached)
		enc = append(enc, perCallUs(func() { _, _ = json.Marshal(serve.BuildRouteResponse(rr, digest, true, false, result)) }))
		hit = append(hit, perCallUs(func() { post(h, body) }))
	}
	res.metric("serve.decode_us", median(dec))
	res.metric("serve.resolve_us", median(resv))
	res.metric("serve.req_digest_us", median(dig))
	res.metric("serve.encode_us", median(enc))
	res.metric("serve.handler_hit_us", median(hit))
	return nil
}

// hitSamples is how many distinct bodies the hit-path timing uses.
const hitSamples = 8

// resultFromWire rebuilds the cached result a hit answer was made from.
func resultFromWire(body []byte) *serve.RouteResult {
	var r serve.RouteResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return &serve.RouteResult{}
	}
	return r.Result()
}

// perCallUs returns the median time of one call of f over repeated
// batches, in microseconds.
func perCallUs(f func()) float64 {
	const batches, per = 7, 20
	var ts []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		ts = append(ts, us(time.Since(start))/per)
	}
	return median(ts)
}
