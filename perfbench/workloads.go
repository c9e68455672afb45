package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// clusterZipf drives an in-process cluster front tier over three serve
// shards on loopback with bodies drawn Zipf from a pool several times the
// front tier's L1, plus a share of never-seen bodies, so L1 hits, owner
// peeks, forwards and fresh routes all occur: decode, resolve, digest,
// the caches and the forward do most of the work and the router little.
var clusterZipf = serviceSpec{
	limitMs:     250,
	ladder:      []float64{150, 300, 1000, 2000, 2500, 3000, 3500, 4000, 4700, 5500, 6500, 7500, 8700, 10000, 12000},
	nominal:     1,
	maxInflight: zipfInflight,
	checks:      16,
	start:       startClusterZipf,
	gen:         clusterZipfGen,
}

const (
	zipfShards   = 3
	zipfPool     = 2048 // four times the front tier's default L1 (512)
	zipfS        = 1.0  // Zipf exponent over pool ranks
	zipfFresh    = 0.05 // share of never-seen bodies
	zipfWarmTop  = 1024 // hottest pool ranks sent once during set-up
	zipfInflight = 1024 // client in-flight cap
)

// smallMix is cluster-zipf's fixed mix: 8 sizes over 16–64 sinks, each
// paired with every mode of modeMix.
var smallMix = mix{sizes: sinkMix(16, 64, 8)}

var zipfCDF = sync.OnceValue(func() []float64 {
	cdf := make([]float64, zipfPool)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
})

// zipfRank draws a pool rank, 0 the hottest.
func zipfRank(rng *rand.Rand) int {
	cdf := zipfCDF()
	return sort.SearchFloat64s(cdf, rng.Float64())
}

// zipfPoolOf returns the pool of a seed, hottest rank first. Every 80
// consecutive ranks hold each size and mode pairing of smallMix once, so
// how much routing the pool's cold end costs does not depend on the seed.
// Every phase of a run draws from the same pool.
func zipfPoolOf(seed uint64) []request {
	combos := newDeck(rand.New(rand.NewPCG(seed, 0x9001)), smallMix.n())
	pool := make([]request, zipfPool)
	for r := range pool {
		pool[r] = smallMix.request(combos.next(), mix64(seed, 0x9001, uint64(r)))
	}
	return pool
}

func clusterZipfGen(seed, phase uint64, n int) []request {
	pool := zipfPoolOf(seed)
	rng := rand.New(rand.NewPCG(seed, phase<<8|2))
	fresh := newDeck(rand.New(rand.NewPCG(seed, phase<<8|3)), smallMix.n())
	out := make([]request, n)
	for i := range out {
		switch {
		case i%invalidEvery == invalidEvery-1:
			out[i] = request{body: invalidBody(mix64(seed, phase, uint64(i))), invalid: true}
		case rng.Float64() < zipfFresh:
			out[i] = smallMix.request(fresh.next(), mix64(seed, phase, uint64(i), 0xf5e5))
		default:
			out[i] = pool[zipfRank(rng)]
		}
	}
	return out
}

// startClusterZipf starts three serve shards on loopback listeners and a
// front tier over them with its default L1, as the cluster harness's
// in-process shards do, then warms the caches with the hottest pool
// bodies, coldest first so the hottest end up most recent.
func startClusterZipf(seed uint64, rec *recorder) (*target, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = zipfInflight // reuse loopback connections
	type shard struct {
		srv  *serve.Server
		hs   *http.Server
		done chan struct{}
	}
	var shards []shard
	var rt *cluster.Router
	closeAll := func() {
		if rt != nil {
			rt.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range shards {
			s.hs.Shutdown(ctx)
			<-s.done
			s.srv.Shutdown(ctx)
		}
		tr.CloseIdleConnections()
	}
	var urls []string
	for i := 0; i < zipfShards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("shard listen: %w", err)
		}
		srv := serve.New(serve.Config{Tracer: traceOrNil(rec)})
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = rec.middleware("serve.handler", h)
		}
		s := shard{srv: srv, hs: &http.Server{Handler: h}, done: make(chan struct{})}
		go func() {
			defer close(s.done)
			s.hs.Serve(ln)
		}()
		shards = append(shards, s)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	reg := obs.NewRegistry()
	var err error
	if rt, err = cluster.New(cluster.Config{Shards: urls, Metrics: reg, Transport: tr}); err != nil {
		closeAll()
		return nil, err
	}
	rt.ProbeNow()
	t := &target{handler: rt.Handler(), front: "cluster.front", registry: reg, close: closeAll}
	for _, s := range shards {
		t.servers = append(t.servers, s.srv)
	}

	// Two senders, matching the two-core load budget.
	pool := zipfPoolOf(seed)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := zipfWarmTop - 1 - w; r >= 0; r -= 2 {
				if code, _, _ := post(t.handler, pool[r].body); code != http.StatusOK {
					errs <- fmt.Errorf("cluster-zipf warm-up: status %d", code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		closeAll()
		return nil, err
	}
	return t, nil
}

// coreMetrics reports the router's own counters over library runs, as
// means per route.
func coreMetrics(res *result, runs []*layered) {
	var route, init, greedy, embed []float64
	var evals, skipped, cached, stores, cands, searches, regions, rebuilds, objs float64
	var bytes, sinks float64
	var hist core.Stats
	for _, l := range runs {
		s := l.Stats
		route = append(route, ms(l.Route))
		init = append(init, ms(s.PhaseInit))
		greedy = append(greedy, ms(s.PhaseGreedy))
		embed = append(embed, ms(s.PhaseEmbed))
		evals += float64(s.PairEvals)
		skipped += float64(s.PairEvalsSkipped)
		cached += float64(s.PairEvalsCached)
		stores += float64(s.PairMemoStores)
		cands += float64(s.IndexCandidates)
		searches += float64(s.IndexSearches)
		regions += float64(s.IndexRegionsVisited)
		rebuilds += float64(s.IndexRebuilds)
		for i, c := range s.IndexNeighborhood {
			hist.IndexNeighborhood[i] += c
		}
		bytes += float64(l.AllocBytes)
		objs += float64(l.AllocObjects)
		sinks += float64(l.Sinks)
	}
	n := float64(len(runs))
	res.metric("core.route_ms", mean(route))
	res.metric("core.init_ms", mean(init))
	res.metric("core.greedy_ms", mean(greedy))
	res.metric("core.embed_ms", mean(embed))
	res.metric("core.pair_evals", evals/n)
	res.metric("core.evals_skipped", skipped/n)
	res.metric("core.memo_hit_ratio", ratio(cached, cached+stores))
	res.metric("core.cands_per_search", ratio(cands, searches))
	res.metric("core.p90_cands_per_search", float64(hist.NeighborhoodQuantile(0.9)))
	res.metric("core.regions_visited", regions/n)
	res.metric("core.index_rebuilds", rebuilds/n)
	res.metric("core.alloc_kb_per_sink", bytes/1024/sinks)
	res.metric("core.allocs_per_route", objs/n)
}

// libMetrics reports the mean time of each non-router library call.
func libMetrics(res *result, runs []*layered) {
	pick := func(f func(*layered) time.Duration) float64 {
		var v []float64
		for _, l := range runs {
			v = append(v, ms(f(l)))
		}
		return mean(v)
	}
	res.metric("bench.generate_ms", pick(func(l *layered) time.Duration { return l.Generate }))
	res.metric("activity.profile_ms", pick(func(l *layered) time.Duration { return l.Profile }))
	res.metric("power.evaluate_ms", pick(func(l *layered) time.Duration { return l.Evaluate }))
	res.metric("verify.tree_ms", pick(func(l *layered) time.Duration { return l.VerifyTree }))
	res.metric("verify.report_ms", pick(func(l *layered) time.Duration { return l.VerifyReport }))
	res.metric("topology.digest_ms", pick(func(l *layered) time.Duration { return l.Digest }))
}

// finishTrace reports each module's self time per request and writes the
// spans to .bench_build/traces.
func finishTrace(a args, res *result, rec *recorder, requests int) error {
	self := rec.selfTimes()
	groups := map[string]float64{}
	bySpan := map[string]float64{}
	for name, d := range self {
		groups[layerGroup(name)] += ms(d)
		bySpan[name] = ms(d) / float64(requests)
	}
	for _, g := range []string{"loadgen", "cluster", "serve", "core", "lib"} {
		res.metric("self."+g+"_ms", groups[g]/float64(requests))
	}
	res.detail("self_ms_per_request", bySpan)
	res.detail("router_merge_spans", rec.merges.Load())
	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", a.workload, a.seed)
	res.detail("spans_file", path)
	return rec.write(path)
}

// sinkMix returns k sink counts spread evenly in log scale over [lo, hi]:
// a fixed log-uniform mix, so the seed changes which request gets which
// size but not the sizes a run routes.
func sinkMix(lo, hi float64, k int) []int {
	out := make([]int, k)
	for i := range out {
		f := (float64(i) + 0.5) / float64(k)
		out[i] = int(lo*math.Pow(hi/lo, f) + 0.5)
	}
	return out
}

// modeMix is the fixed mode mix: 70% gated-red, 10% each of gated,
// buffered and bare.
var modeMix = []string{"gated-red", "gated-red", "gated-red", "gated-red", "gated-red", "gated-red", "gated-red", "gated", "buffered", "bare"}

// mix is a fixed request mix: every size paired with every mode of
// modeMix, len(sizes) × len(modeMix) combinations.
type mix struct{ sizes []int }

func (m mix) n() int { return len(m.sizes) * len(modeMix) }

// request is combination k of the mix, routing the instance seed synthesizes.
func (m mix) request(k int, seed uint64) request {
	return synthRequest(m.sizes[k/len(modeMix)], seed, modeMix[k%len(modeMix)])
}

// synthRequest is a request to route a synthesized instance.
func synthRequest(sinks int, seed uint64, mode string) request {
	body := fmt.Sprintf(`{"config":{"numSinks":%d,"seed":%d},"mode":%q}`, sinks, seed, mode)
	return request{body: []byte(body), sinks: sinks}
}

// invalidEvery makes one request in this many deliberately invalid: an
// unknown mode, which the service must refuse with 400.
const invalidEvery = 50

func invalidBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"config":{"numSinks":32,"seed":%d},"mode":"gated-blue"}`, seed))
}

// deck deals indices 0..n-1 in seeded shuffled rounds, so every n draws
// cover each index once.
type deck struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	return &deck{rng: rng, perm: make([]int, n), pos: n}
}

func (d *deck) next() int {
	if d.pos == len(d.perm) {
		for i := range d.perm {
			d.perm[i] = i
		}
		d.rng.Shuffle(len(d.perm), func(a, b int) { d.perm[a], d.perm[b] = d.perm[b], d.perm[a] })
		d.pos = 0
	}
	d.pos++
	return d.perm[d.pos-1]
}

// mix64 derives a well-spread 64-bit value from its inputs (SplitMix64
// finalizer), used for request seeds that must never repeat.
func mix64(vals ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
