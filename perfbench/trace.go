package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one recorded interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Req    int64     `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: every method is a no-op, so the untraced path pays one
// nil check per layer call.
type recorder struct {
	on     atomic.Bool // spans are kept only while on
	mu     sync.Mutex
	spans  []span
	nextID atomic.Int64
	merges atomic.Int64 // per-merge spans from the router are counted, not kept
	epoch  time.Time
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

// add records a finished span and returns its ID.
func (r *recorder) add(name string, req, parent int64, start, end time.Time) int64 {
	if r == nil || !r.on.Load() {
		return 0
	}
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// reserve hands out a span ID before the span ends, so children recorded
// while it runs can name it as their parent.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// finish records a span under an ID from reserve.
func (r *recorder) finish(id int64, name string, req, parent int64, start time.Time) {
	if r == nil || !r.on.Load() {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// timed runs f inside a span named name.
func (r *recorder) timed(name string, req, parent int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(name, req, parent, start, end)
	return end.Sub(start)
}

// Span implements obs.Tracer for the hooks the program already has:
// serve.queue and serve.route from serve.Config.Tracer, and the router's
// init/greedy/embed phases from Options.Tracer. Their parents are found
// afterwards by time containment, since the hooks carry no request ID.
func (r *recorder) Span(s obs.Span) {
	if !r.on.Load() {
		return
	}
	if s.Kind == obs.SpanMerge {
		r.merges.Add(1)
		return
	}
	name := s.Name
	if !strings.HasPrefix(name, "serve.") {
		name = "core." + name
	}
	r.add(name, 0, -1, s.Start, s.Start.Add(s.Dur))
}

// middleware records a span named name around every request next serves.
// Its parent is found by containment, like the hook spans.
func (r *recorder) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, req)
		n := name
		if req.Method == http.MethodGet {
			n = name + ".peek"
		}
		r.add(n, 0, -1, start, time.Now())
	})
}

// containers lists, for each span name whose parent is found by
// containment, the names its parent may have.
var containers = map[string][]string{
	"serve.handler":      {"cluster.front"},
	"serve.handler.peek": {"cluster.front"},
	"serve.queue":        {"serve.handler"},
	"serve.route":        {"serve.handler"},
	"core.init":          {"serve.route", "core.route"},
	"core.greedy":        {"serve.route", "core.route"},
	"core.embed":         {"serve.route", "core.route"},
}

// link gives every span recorded with parent -1 the tightest span of an
// allowed parent name whose interval contains it, and inherits its
// request ID. A span no candidate contains becomes a root.
func (r *recorder) link() {
	byName := map[string][]int{}
	for i, s := range r.spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	for _, idx := range byName {
		sort.Slice(idx, func(a, b int) bool { return r.spans[idx[a]].Start.Before(r.spans[idx[b]].Start) })
	}
	// Parents are linked before their children, so a request ID flows
	// down a whole chain.
	order := []string{"serve.handler", "serve.handler.peek", "serve.queue", "serve.route", "core.init", "core.greedy", "core.embed"}
	for _, name := range order {
		for _, ci := range byName[name] {
			c := &r.spans[ci]
			if c.Parent != -1 {
				continue
			}
			c.Parent = 0
			var best *span
			for _, pname := range containers[name] {
				cand := byName[pname]
				// Last candidate starting at or before the child.
				k := sort.Search(len(cand), func(j int) bool { return r.spans[cand[j]].Start.After(c.Start) })
				for j := k - 1; j >= 0 && j >= k-64; j-- {
					p := &r.spans[cand[j]]
					if !p.End.Before(c.End) {
						if best == nil || p.Start.After(best.Start) {
							best = p
						}
						break
					}
				}
			}
			if best != nil {
				c.Parent, c.Req = best.ID, best.Req
			}
		}
	}
}

// selfTimes links the spans and returns each span name's total self time:
// its spans' durations minus the part of each interval its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.link()
	kids := map[int64][]int{}
	for i, s := range r.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range r.spans {
		var ivs [][2]time.Time
		for _, k := range kids[s.ID] {
			c := r.spans[k]
			lo, hi := c.Start, c.End
			if lo.Before(s.Start) {
				lo = s.Start
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				ivs = append(ivs, [2]time.Time{lo, hi})
			}
		}
		self[s.Name] += s.End.Sub(s.Start) - covered(ivs)
	}
	return self
}

// covered returns the length of the union of intervals.
func covered(ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0].Before(ivs[b][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(curHi) {
			total += curHi.Sub(curLo)
			curLo, curHi = iv[0], iv[1]
		} else if iv[1].After(curHi) {
			curHi = iv[1]
		}
	}
	return total + curHi.Sub(curLo)
}

// durations returns the durations of every span named name, in ms.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}

// layerGroup maps a span name to the module whose self time it counts
// toward.
func layerGroup(name string) string {
	switch {
	case name == "request":
		return "loadgen"
	case strings.HasPrefix(name, "cluster."):
		return "cluster"
	case strings.HasPrefix(name, "serve."):
		return "serve"
	case strings.HasPrefix(name, "core."):
		return "core"
	default:
		return "lib"
	}
}

// write stores the spans as JSON lines, times in microseconds since the
// recorder started.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		rec := struct {
			span
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
		}{s, us(s.Start.Sub(r.epoch)), us(s.End.Sub(r.epoch))}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
