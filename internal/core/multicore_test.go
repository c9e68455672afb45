package core

import (
	"fmt"
	"testing"

	"repro/internal/gating"
	"repro/internal/tech"
)

// TestMulticoreDigestProperty is the determinism contract of the parallel
// best-partner searches: routing the same instance at Workers ∈ {1, 2, 8}
// must produce bit-identical trees and identical non-timing Stats — pair
// evaluations, skips, memo hits and stores, index candidates, searches,
// regions visited, rebuilds and the neighbourhood histogram. Workers only
// spread the initial scan and the stale rescans, each of which reads the
// index and writes its own memo row, so not even the work done may depend
// on the schedule; a counter that moves with the worker count means some
// search or prune saw another worker's state.
//
// The corpus runs under -short (reduced) on purpose: `make race` leans on
// it to catch data races between scan workers. The N=4096 clustered case
// is large enough to keep many stale rescans above the parallel cutoff
// and is skipped under -short.
func TestMulticoreDigestProperty(t *testing.T) {
	p := tech.Default()
	modes := []Options{
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}},
		{Tech: p, Method: MinClockCapOnly, Drivers: GatedTree},
		{Tech: p, Method: GreedyDistance, Drivers: BareTree},
	}
	kinds := []string{"uniform", "clustered", "hotspot", "ring", "dup", "line"}

	type route struct {
		name string
		kind string
		n    int
		seed uint64
		opts Options
	}
	var routes []route
	cases := 200
	if testing.Short() {
		cases = 48
	} else {
		routes = append(routes, route{"large-clustered-n4096", "clustered", 4096, 9, modes[0]})
	}
	for i := 0; i < cases; i++ {
		kind := kinds[i%len(kinds)]
		opts := modes[(i/len(kinds))%len(modes)]
		n := spatialMinSinks + (i*17)%80
		name := fmt.Sprintf("%03d-%s-%s-n%d", i, kind, opts.Method, n)
		routes = append(routes, route{name, kind, n, uint64(7000 + i), opts})
	}
	for _, rt := range routes {
		in := placedInstance(t, rt.kind, rt.n, rt.seed)
		var ref string
		var refStats Stats
		for _, wk := range []int{1, 2, 8} {
			o := rt.opts
			o.Workers = wk
			tr, s, err := Route(in, o)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", rt.name, wk, err)
			}
			s.PhaseInit, s.PhaseGreedy, s.PhaseEmbed = 0, 0, 0
			d := tr.Digest()
			if wk == 1 {
				ref, refStats = d, s
				continue
			}
			if d != ref {
				t.Fatalf("%s: workers=%d tree %s != workers=1 tree %s",
					rt.name, wk, d[:12], ref[:12])
			}
			if s != refStats {
				t.Fatalf("%s: workers=%d stats differ from workers=1:\n got %+v\nwant %+v",
					rt.name, wk, s, refStats)
			}
		}
	}
}
