package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns n due times, offsets from the phase start, of a
// Poisson arrival process at rate per second. The same seed and stream
// give the same schedule.
func poissonSchedule(seed, stream uint64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, stream))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// reply is how one request ended, as the workload's send function saw it.
type reply struct {
	fail    string // empty on success, else the failure kind
	invalid bool   // a deliberately invalid body (its 400 is a success)
	source  string // where the answer came from (X-Cluster-Source), if known
	// routedSinks and routeMs describe the fresh route the answer led, as
	// the service reported it; both are 0 for a cached or joined answer.
	routedSinks int
	routeMs     float64
}

// shot is one scheduled request: its lag behind its due time when it was
// sent, its latency from the due time to the answer, and the reply.
type shot struct {
	lag, lat time.Duration
	reply
}

// openLoop sends request i at sched[i] after the phase start, whether or
// not earlier requests have answered. send returns the reply and when the
// answer arrived, so checks it runs afterwards stay out of the latency.
// At most maxInflight requests are outstanding; a request due while the
// cap is reached is refused at once with fail "client_cap", so overload
// shows as refusals instead of an unbounded pile of goroutines. It returns
// once every request has ended.
func openLoop(sched []time.Duration, maxInflight int, send func(i int) (reply, time.Time)) (shots []shot, inflightMax int) {
	shots = make([]shot, len(sched))
	var inflight atomic.Int64
	var peak int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range sched {
		dueAt := start.Add(due)
		waitUntil(dueAt)
		shots[i].lag = time.Since(dueAt)
		if inflight.Load() >= int64(maxInflight) {
			shots[i].reply = reply{fail: "client_cap"}
			shots[i].lat = shots[i].lag
			continue
		}
		if n := inflight.Add(1); n > peak {
			peak = n
		}
		wg.Add(1)
		go func(i int, dueAt time.Time) {
			defer wg.Done()
			r, done := send(i)
			shots[i].lat = done.Sub(dueAt)
			shots[i].reply = r
			inflight.Add(-1)
		}(i, dueAt)
	}
	wg.Wait()
	return shots, int(peak)
}

// spinWindow is how early the generator stops sleeping and starts
// yielding in a loop until a request is due. A sleeping process wakes up to
// a millisecond late; a thread blocked in a precise kernel sleep would
// instead hold a processor the system under test could be using.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at t, or at once if t has passed. The final stretch
// yields to other goroutines instead of sleeping, so it is precise while
// the process is idle and gives way to the system under test while it is
// busy.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	Rate      float64        `json:"rate_rps"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	P50Ms     float64        `json:"p50_ms"`
	TailMs    float64        `json:"tail_ms"`
	TailPct   float64        `json:"tail_pct"`
	Samples   int            `json:"samples"`
	LagP50Ms  float64        `json:"lag_p50_ms"`
	LagP99Ms  float64        `json:"lag_p99_ms"`
	Growing   bool           `json:"growing_backlog"`
	Inflight  int            `json:"inflight_max"`
	Fails     map[string]int `json:"fails,omitempty"`
	// OwnP50Ms and OwnTailMs are the median and the tail-percentile of the
	// system's own time: each answered request's latency less its lag.
	OwnP50Ms  float64 `json:"own_p50_ms"`
	OwnTailMs float64 `json:"own_tail_ms"`
	// Routes counts the fresh routes the phase's answers led, and
	// RouteSinksPerS is their median rate, sinks over the route time the
	// service reported. The median keeps a route that lost its processor
	// for a while from moving the figure.
	Routes         int     `json:"routes"`
	RouteSinksPerS float64 `json:"route_sinks_per_s"`
}

// summarise computes a phase's latency figures over its answered valid
// requests. Failures are counted apart; any failure makes the phase miss
// its limit (see meets), so latency never has to stand for them. The tail
// is taken at pct, or by the tail rule when pct is 0 or leaves fewer than
// minBeyond samples beyond it.
func summarise(rate float64, shots []shot, inflightMax int, limitMs, pct float64) phaseStats {
	ps := phaseStats{Rate: rate, Attempted: len(shots), Inflight: inflightMax}
	var lat, own, lags, rates []float64
	for _, s := range shots {
		lags = append(lags, ms(s.lag))
		if s.fail != "" {
			ps.Failed++
			if ps.Fails == nil {
				ps.Fails = map[string]int{}
			}
			ps.Fails[s.fail]++
			continue
		}
		if s.routeMs > 0 {
			rates = append(rates, float64(s.routedSinks)/(s.routeMs/1000))
		}
		if !s.invalid {
			lat = append(lat, ms(s.lat))
			own = append(own, ms(s.lat-s.lag))
		}
	}
	ps.Samples = len(lat)
	ps.Routes, ps.RouteSinksPerS = len(rates), median(rates)
	ps.P50Ms = median(lat)
	ps.TailPct, ps.TailMs = tailOrMax(lat)
	if pct > 0 && beyond(len(lat), pct) >= minBeyond {
		ps.TailPct, ps.TailMs = pct, sortedCopy(lat)[nearestRank(len(lat), pct)-1]
	}
	ps.LagP50Ms = median(lags)
	ps.LagP99Ms = quantile(sortedCopy(lags), 0.99)
	ps.OwnP50Ms = median(own)
	if len(own) > 0 {
		ps.OwnTailMs = sortedCopy(own)[nearestRank(len(own), ps.TailPct)-1]
	}
	// A backlog that grows across the phase makes the last requests wait
	// much longer than the first ones.
	if q := len(lat) / 4; q > 0 {
		ps.Growing = median(lat[len(lat)-q:]) > median(lat[:q])+limitMs/2
	}
	return ps
}

// ownShare is the smallest share of a latency figure that must be the
// system's own time rather than the generator's lag. Latency is timed
// from the due time, so a figure made mostly of lag would measure the
// generator.
const ownShare = 0.5

// ownMedian and ownTail report whether the system's own time makes up at
// least ownShare of the phase's median and tail latency. A phase with no
// answered request has no figures to protect.
func (ps phaseStats) ownMedian() bool {
	return ps.Samples == 0 || ps.OwnP50Ms >= ownShare*ps.P50Ms
}

func (ps phaseStats) ownTail() bool {
	return ps.Samples == 0 || ps.OwnTailMs >= ownShare*ps.TailMs
}

// meets reports whether a phase held the latency limit: no failures, a
// tail within the limit that is mostly the system's own time, and no
// growing backlog.
func (ps phaseStats) meets(limitMs float64) bool {
	return ps.Failed == 0 && ps.TailMs <= limitMs && ps.ownTail() && !ps.Growing
}

// maxRate is the highest offered rate that holds the latency limit, found
// on the rungs run. Between the highest rung that holds it and the next
// rung up, which misses it, the rate is interpolated where the tail
// crosses the limit (linear in log tail), so the figure moves smoothly
// with capacity instead of jumping a whole rung. A missing rung whose tail
// did not cross the limit (failures, a growing backlog or a lagging
// generator made it miss) yields the passing rung's rate.
func maxRate(rungs []phaseStats, limitMs float64) float64 {
	rs := append([]phaseStats(nil), rungs...)
	sort.Slice(rs, func(a, b int) bool { return rs[a].Rate < rs[b].Rate })
	best := 0.0
	for i, r := range rs {
		if !r.meets(limitMs) {
			continue
		}
		best = r.Rate
		if i+1 == len(rs) {
			break
		}
		next := rs[i+1]
		if next.meets(limitMs) || next.TailMs <= limitMs {
			continue
		}
		f := math.Log(limitMs/r.TailMs) / math.Log(next.TailMs/r.TailMs)
		best = r.Rate + math.Min(1, math.Max(0, f))*(next.Rate-r.Rate)
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
