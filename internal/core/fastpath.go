// The fast path of the one-pair-at-a-time greedy (PROCEDURE
// GatedClockRouting). Three layers accelerate the schedule without changing
// a single output bit relative to runGreedyReference:
//
//  1. Pair-cost memo. pairCost(a, b) is a pure function of the two
//     (immutable once created) nodes, so every evaluated cost is stored in
//     a per-node row indexed by partner ID and rescans after a merge are
//     served from the memo instead of re-solving the zero-skew merge.
//     Rows are keyed owner-first — pairCost is not exactly symmetric under
//     floating point, and the reference always evaluates (owner, partner)
//     in that order.
//  2. Lazy-deletion min-heap. The reference's cheapest() is a linear scan
//     over the active set every iteration; here every best-partner update
//     pushes a versioned entry and stale entries are discarded on pop. The
//     heap order (cost, then node ID) is exactly cheapest()'s tie rule.
//  3. Admissible lower bound. Before solving BoundedSkewMerge for a
//     candidate, a geometric bound — zero-length edges plus the joining
//     distance charged at the cheaper branch's activity weight — is
//     compared against the running best. WireCap is linear in length and
//     la+lb ≥ dist(ms(a), ms(b)), so the bound never exceeds the true
//     Equation-3 cost; candidates it dominates are skipped (counted in
//     Stats.PairEvalsSkipped) without affecting the selected pair.
package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/dme"
	"repro/internal/faultinject"
	"repro/internal/topology"
	"repro/internal/verify"
)

// invariantf builds a fast-path invariant error; it wraps
// verify.ErrInvariant so FallbackOnError and callers classify construction
// corruption uniformly with post-construction verification failures.
func invariantf(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", verify.ErrInvariant, fmt.Sprintf(format, args...))
}

// dominated reports whether lower bound lb proves a candidate cannot beat
// or tie the running best cost thr. The relative margin keeps the test
// conservative against the rounding of lb's own computation: a skipped
// candidate is always strictly worse than thr, so pruning can change
// neither the selected pair nor any tie-break.
func dominated(lb, thr float64) bool {
	return lb > thr+1e-12*math.Abs(thr)
}

// heapEntry is one versioned candidate in the lazy-deletion heap.
type heapEntry struct {
	cost float64
	id   int32  // node ID owning the entry
	ver  uint32 // version of best[id] when pushed
}

// pairHeap is a hand-rolled binary min-heap ordered by (cost, id) — the
// exact tie rule of the reference cheapest() scan.
type pairHeap []heapEntry

func (h pairHeap) less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].id < h[j].id
}

func (h *pairHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *pairHeap) pop() heapEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s.less(l, m) {
			m = l
		}
		if r < len(s) && s.less(r, m) {
			m = r
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// memoEntry is one memoized pair cost in a compact per-neighborhood row:
// the partner ID and pairCost(owner, partner). Rows are bounded
// (memoRowCap) — pairCost is a pure function of two immutable nodes, so
// evicting an entry can only cost a re-evaluation, never change a value.
type memoEntry struct {
	partner int32
	cost    float64
}

// memoRowCap bounds a compact memo row. Ring searches rarely emit more
// candidates than this; when they do, dead entries are compacted out and
// then the oldest entry is evicted.
const memoRowCap = 48

// greedyState is the bookkeeping of the fast greedy, indexed by node ID
// (IDs are dense: 0..n-1 for sinks, then one per merge). It runs in one of
// two modes: the exhaustive mode (idx == nil) scans all active nodes and
// memoizes into dense per-owner rows, while the indexed mode generates
// candidates from the spatial grid and memoizes into bounded compact rows,
// keeping total memory linear in the instance size.
type greedyState struct {
	byID  []*topology.Node
	best  []cand
	ver   []uint32
	alive []bool
	memo  [][]float64 // memo[owner][partner] = pairCost(owner, partner); NaN = absent
	heap  pairHeap
	fi    *faultinject.Injector // nil in production

	// Indexed-mode state; all nil/zero in exhaustive mode.
	idx    *spatialIndex
	rows   [][]memoEntry // compact memo rows, replacing memo
	deps   [][]int32     // deps[p] = IDs whose best partner is p
	depPos []int32       // position of id within deps[best[id].partner]

	// Per-worker best-partner walkers, the serial fold-in's walker, and
	// gridScr, which pools every grid allocation across rebuilds.
	scratch []searchScratch
	fold    foldWalker
	gridScr *spatialScratch

	// recs[id] is the candidate record of node id — the immutable terms
	// the indexed path's candidate filter reads (see candRec and
	// indexRegister), filled once per node so the filter touches plain
	// floats instead of TRRs and interface calls.
	recs []candRec

	// Gating-policy shape resolved at attachIndex (polMode) plus the
	// scalars the zu fill rule needs: the per-λ clock wire capacitance
	// and the forced-insertion threshold (polReduce only).
	polMode  int
	cWire    float64
	forceCap float64

	// Arena-style recycling: fresh memo rows and dependent lists are
	// carved from two slabs (three-index capped, so growth reallocates
	// off-slab instead of aliasing a neighbor), killed nodes hand theirs
	// to their successors, and the per-merge scratch slices are reused
	// across iterations — steady-state merge work allocates nothing
	// beyond genuine row growth.
	rowSlab   []memoEntry
	rowOff    int
	depSlab   []int32
	depOff    int
	freeRows  [][]memoEntry
	freeDeps  [][]int32
	staleBuf  []*topology.Node
	rescanBuf []cand

	// stores counts memo writes — the memo-eligible misses that form the
	// cache-hit-rate denominator. Owned by the router during routing.
	stores *atomic.Int64
}

func newGreedyState(sinks []*topology.Node, fi *faultinject.Injector) *greedyState {
	capIDs := 2*len(sinks) - 1
	g := &greedyState{
		byID:   make([]*topology.Node, capIDs),
		best:   make([]cand, capIDs),
		ver:    make([]uint32, capIDs),
		alive:  make([]bool, capIDs),
		memo:   make([][]float64, capIDs),
		heap:   make(pairHeap, 0, 4*len(sinks)),
		fi:     fi,
		stores: new(atomic.Int64),
	}
	for _, n := range sinks {
		g.byID[n.ID] = n
		g.alive[n.ID] = true
	}
	return g
}

// setBest records n's cheapest partner and pushes a fresh heap entry;
// older entries for the node become stale via the version counter. In
// indexed mode it also maintains the reverse-dependent lists and the
// fold-in upper bound. Must be called from the serial sections only.
func (g *greedyState) setBest(id int, c cand) {
	if g.idx != nil {
		if old := g.best[id].partner; old != nil && g.alive[old.ID] {
			g.depRemove(old.ID, int32(id))
		}
		if c.partner != nil {
			g.depAdd(c.partner.ID, int32(id))
		}
		g.idx.noteBest(int32(id), c.cost)
	}
	g.best[id] = c
	g.ver[id]++
	g.heap.push(heapEntry{cost: g.fi.HeapCost(c.cost), id: int32(id), ver: g.ver[id]})
}

// depAdd records that node id's best partner is partnerID.
func (g *greedyState) depAdd(partnerID int, id int32) {
	g.depPos[id] = int32(len(g.deps[partnerID]))
	g.deps[partnerID] = append(g.deps[partnerID], id)
}

// depRemove unlinks id from partnerID's dependent list by swap-removal.
func (g *greedyState) depRemove(partnerID int, id int32) {
	l := g.deps[partnerID]
	last := int32(len(l)) - 1
	p := g.depPos[id]
	moved := l[last]
	l[p] = moved
	g.depPos[moved] = p
	g.deps[partnerID] = l[:last]
}

// kill retires a merged-away node and releases its memo row (exhaustive
// mode).
func (g *greedyState) kill(id int) {
	g.alive[id] = false
	g.memo[id] = nil
}

// killIndexed retires a merged-away node in indexed mode: it leaves the
// dependent list of its (still live) best partner, leaves the grid, and
// recycles its memo row and dependent list for future merge nodes.
func (g *greedyState) killIndexed(id int) {
	if p := g.best[id].partner; p != nil && g.alive[p.ID] {
		g.depRemove(p.ID, int32(id))
	}
	g.alive[id] = false
	g.best[id] = cand{}
	g.idx.remove(int32(id))
	g.freeRows = append(g.freeRows, g.rows[id][:0])
	g.rows[id] = nil
	g.freeDeps = append(g.freeDeps, g.deps[id][:0])
	g.deps[id] = nil
}

// memoRowInit and depInit are the initial capacities of a compact memo
// row and a reverse-dependent list — also the per-sink carve widths of
// the two slabs attachIndex lays out.
const (
	memoRowInit = 16
	depInit     = 8
)

// assignRow hands node id a recycled compact memo row, a slab carve, or a
// fresh heap row when the slab is dry. Slab carves are zero-length with a
// hard cap, so appending past memoRowInit moves the row off-slab instead
// of growing into a neighbor's carve.
func (g *greedyState) assignRow(id int) {
	if n := len(g.freeRows); n > 0 {
		g.rows[id] = g.freeRows[n-1]
		g.freeRows = g.freeRows[:n-1]
		return
	}
	if off := g.rowOff; off+memoRowInit <= len(g.rowSlab) {
		g.rows[id] = g.rowSlab[off : off : off+memoRowInit]
		g.rowOff = off + memoRowInit
		return
	}
	g.rows[id] = make([]memoEntry, 0, memoRowInit)
}

// assignDeps hands node id a recycled dependent list, a slab carve, or a
// fresh heap list (same carve rules as assignRow).
func (g *greedyState) assignDeps(id int) {
	if n := len(g.freeDeps); n > 0 {
		g.deps[id] = g.freeDeps[n-1]
		g.freeDeps = g.freeDeps[:n-1]
		return
	}
	if off := g.depOff; off+depInit <= len(g.depSlab) {
		g.deps[id] = g.depSlab[off : off : off+depInit]
		g.depOff = off + depInit
		return
	}
	g.deps[id] = make([]int32, 0, depInit)
}

// popCheapest returns the live node whose cached pair is globally
// cheapest, discarding heap entries invalidated by merges or rescans. A
// current-version entry must agree with the best table and carry a sane
// cost — Equation-3 costs and sector distances are always finite and
// non-negative — so any mismatch means the heap or the table is corrupt.
func (g *greedyState) popCheapest() (*topology.Node, error) {
	for len(g.heap) > 0 {
		e := g.heap.pop()
		if !g.alive[e.id] || g.ver[e.id] != e.ver {
			continue
		}
		b := g.best[e.id]
		switch {
		case e.cost != b.cost || !(e.cost >= 0) || math.IsInf(e.cost, 1):
			return nil, invariantf("heap entry for node %d has cost %v, best table says %v",
				e.id, e.cost, b.cost)
		case b.partner == nil || !g.alive[b.partner.ID]:
			return nil, invariantf("node %d's cached partner is not alive", e.id)
		}
		return g.byID[e.id], nil
	}
	return nil, invariantf("pair heap exhausted with live nodes remaining")
}

func (g *greedyState) memoGet(owner, partner int) (float64, bool) {
	if g.idx != nil {
		for _, e := range g.rows[owner] {
			if e.partner == int32(partner) {
				return e.cost, true
			}
		}
		return 0, false
	}
	row := g.memo[owner]
	if partner >= len(row) {
		return 0, false
	}
	c := row[partner]
	return c, c == c // NaN ⇒ absent
}

// memoSet stores a cost. In exhaustive mode the owner's dense row grows
// geometrically; in indexed mode the bounded compact row compacts dead
// partners out and then evicts its oldest entry. Rows are only touched by
// the goroutine that owns the row's node in the current parallel phase, so
// no locking is needed (alive is read-only during parallel phases).
func (g *greedyState) memoSet(owner, partner int, cost float64) {
	g.stores.Add(1)
	if g.idx != nil {
		row := g.rows[owner]
		if len(row) >= memoRowCap {
			kept := row[:0]
			for _, e := range row {
				if g.alive[e.partner] {
					kept = append(kept, e)
				}
			}
			row = kept
			if len(row) >= memoRowCap {
				copy(row, row[1:])
				row = row[:len(row)-1]
			}
		}
		g.rows[owner] = append(row, memoEntry{partner: int32(partner), cost: cost})
		return
	}
	row := g.memo[owner]
	if partner >= len(row) {
		newLen := 2 * len(row)
		if newLen < partner+1 {
			newLen = partner + 1
		}
		if newLen > len(g.memo) {
			newLen = len(g.memo)
		}
		grown := make([]float64, newLen)
		copy(grown, row)
		for i := len(row); i < newLen; i++ {
			grown[i] = math.NaN()
		}
		g.memo[owner] = grown
		row = grown
	}
	row[partner] = cost
}

// lbFloor returns partner-independent floors for the edge that would feed
// n in any merge: on the zero-length edge cost and on the per-λ wire
// weight. Both gating outcomes are covered — a gated edge costs at least
// AttachCap·P(n) (the control term is non-negative), and an ungated edge
// in a gated tree is charged at parentP ≥ P(n).
func (r *router) lbFloor(n *topology.Node) (zero, weight float64) {
	if r.opts.Drivers == GatedTree {
		return n.AttachCap * n.P, n.P
	}
	zero = n.AttachCap
	if r.opts.Drivers == BufferedTree {
		zero += r.opts.Tech.Buffer.Cin
	}
	return zero, 1
}

// pairCostBounded evaluates pairCost(a, b), unless an admissible
// geometric lower bound already proves the pair is strictly worse than
// threshold — then it returns (bound, true, nil) without solving the
// merge. Two filters run in increasing cost: the partner-independent
// floors (one distance computation), then the full bound with the real
// gating decision and merged signal probability. Must mirror pairCost
// exactly on the evaluation path.
func (r *router) pairCostBounded(a, b *topology.Node, threshold float64) (float64, bool, error) {
	if r.opts.Method == GreedyDistance || r.opts.Method == ActivityDriven {
		// No merge solve involved — the evaluation is already cheap.
		c, err := r.pairCost(a, b)
		return c, false, err
	}
	if !math.IsInf(threshold, 1) {
		zeroA, wfA := r.lbFloor(a)
		zeroB, wfB := r.lbFloor(b)
		if wfB < wfA {
			wfA = wfB
		}
		cheap := zeroA + zeroB + r.opts.Tech.WireCap(a.MS.Dist(b.MS))*wfA
		if dominated(cheap, threshold) {
			return cheap, true, nil
		}
	}
	return r.pairCostGated(a, b, threshold)
}

// pairCostGated is pairCostBounded without the partner-independent first
// filter: the indexed path runs the tighter candRec floor (scanCell)
// before the memo probe, so repeating the looser filter here would be pure
// overhead. Evaluation path identical to pairCost.
func (r *router) pairCostGated(a, b *topology.Node, threshold float64) (float64, bool, error) {
	if r.opts.Method == GreedyDistance || r.opts.Method == ActivityDriven {
		c, err := r.pairCost(a, b)
		return c, false, err
	}
	parentP := 1.0
	if p := r.in.Profile; p != nil {
		parentP = p.SignalProbUnion(a.Instr, b.Instr)
	}
	da, db, ga, gb := r.decideDrivers(a, b, parentP)
	if !math.IsInf(threshold, 1) {
		// Lower bound: both edges at zero length plus the unavoidable
		// joining distance of wire charged at the cheaper branch weight.
		w := math.Min(r.edgeWeight(a, ga, parentP), r.edgeWeight(b, gb, parentP))
		lb := r.edgeSC(a, 0, ga, parentP) + r.edgeSC(b, 0, gb, parentP) +
			r.opts.Tech.WireCap(a.MS.Dist(b.MS))*w
		if dominated(lb, threshold) {
			return lb, true, nil
		}
	}
	r.pairEvals.Add(1)
	m, err := dme.BoundedSkewMerge(r.opts.Tech,
		dme.Branch{MS: a.MS, Delay: a.Delay, Spread: a.Spread, Cap: a.Cap, Driver: da},
		dme.Branch{MS: b.MS, Delay: b.Delay, Spread: b.Spread, Cap: b.Cap, Driver: db},
		r.opts.SkewBoundPs)
	if err != nil {
		return 0, false, err
	}
	return r.edgeSC(a, m.LenA, ga, parentP) + r.edgeSC(b, m.LenB, gb, parentP), false, nil
}

// bestPartnerPruned is bestPartner with the memo and the lower-bound
// filter: memoized costs are reused, unseen candidates are evaluated only
// when their bound does not prove them dominated by the running best. The
// returned cand is the same argmin under the same (cost, ID) tie rule as
// the reference scan. Safe to call concurrently for distinct n.
func (r *router) bestPartnerPruned(g *greedyState, n *topology.Node, active []*topology.Node) (cand, error) {
	out := cand{}
	found := false
	for _, m := range active {
		if m == n {
			continue
		}
		var cost float64
		if c, ok := g.memoGet(n.ID, m.ID); ok {
			r.pairCached.Add(1)
			cost = g.fi.MemoCost(c)
			// Memoized costs were all computed by pairCost, which never
			// returns a negative (or NaN) value; a bad read means the row
			// was corrupted after it was filled.
			if !(cost >= 0) {
				return cand{}, invariantf("memo row %d[%d] holds impossible cost %v",
					n.ID, m.ID, cost)
			}
		} else {
			thr := math.Inf(1)
			if found {
				thr = out.cost
			}
			c, pruned, err := r.pairCostBounded(n, m, thr)
			if err != nil {
				return cand{}, err
			}
			if pruned {
				r.pairSkipped.Add(1)
				continue
			}
			g.memoSet(n.ID, m.ID, c)
			cost = c
		}
		if !found || cost < out.cost || (cost == out.cost && m.ID < out.partner.ID) {
			out = cand{partner: m, cost: cost}
			found = true
		}
	}
	return out, nil
}

// runGreedyProtected runs the fast greedy with a panic barrier: the
// accelerated path's heap/memo bookkeeping is the only code here with no
// reference twin, so a panic inside it is converted into an invariant
// error (recoverable via Options.FallbackOnError) instead of unwinding
// into the caller. The reference path stays unguarded by design — a panic
// there is a genuine bug with no second implementation to fall back on.
func (r *router) runGreedyProtected() (root *topology.Node, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			root, err = nil, invariantf("fast-path panic: %v", rec)
		}
	}()
	return r.runGreedy()
}

// runGreedy is the accelerated one-pair-at-a-time schedule. Outputs —
// topology, embedding, every float — are bit-identical to
// runGreedyReference; see the package comment at the top of this file for
// why each layer preserves that. Large instances with a geometric pair
// cost dispatch to the spatially indexed loop (spatial.go), which keeps
// the same contract.
func (r *router) runGreedy() (*topology.Node, error) {
	initStart := time.Now()
	active := r.makeSinks()
	if len(active) == 1 {
		return active[0], nil
	}
	g := newGreedyState(active, r.opts.FaultInject)
	g.stores = &r.memoStores
	r.attachIndex(g, active)
	if g.idx != nil {
		return r.runGreedyIndexed(g, active, initStart)
	}

	initial := make([]cand, len(active))
	if err := r.parallelFor(len(active), func(i int) error {
		c, err := r.bestPartnerPruned(g, active[i], active)
		initial[i] = c
		return err
	}); err != nil {
		return nil, err
	}
	for i, n := range active {
		g.setBest(n.ID, initial[i])
	}
	r.stats.PhaseInit = time.Since(initStart)

	for len(active) > 1 {
		g.fi.CheckPanic()
		a, err := g.popCheapest()
		if err != nil {
			return nil, err
		}
		b := g.best[a.ID].partner
		cost := g.best[a.ID].cost
		var t0 time.Time
		snakesBefore := r.stats.Snakes
		if r.obsEnabled() {
			t0 = time.Now()
		}
		k, err := r.merge(a, b)
		if err != nil {
			return nil, err
		}
		k.P = g.fi.MergedP(k.P)
		r.stats.Merges++
		r.observeMerge(t0, a, b, k, cost, r.stats.Snakes > snakesBefore, len(g.heap))

		out := active[:0]
		for _, n := range active {
			if n != a && n != b {
				out = append(out, n)
			}
		}
		active = append(out, k)
		g.kill(a.ID)
		g.kill(b.ID)
		g.byID[k.ID] = k
		g.alive[k.ID] = true

		// Rescan nodes that were paired with a or b; surviving pairs come
		// out of the memo, so this is mostly lookups.
		var stale []*topology.Node
		for _, n := range active[:len(active)-1] {
			if p := g.best[n.ID].partner; p == a || p == b {
				stale = append(stale, n)
			}
		}
		rescan := make([]cand, len(stale))
		if err := r.parallelFor(len(stale), func(i int) error {
			c, err := r.bestPartnerPruned(g, stale[i], active)
			rescan[i] = c
			return err
		}); err != nil {
			return nil, err
		}
		for i, n := range stale {
			g.setBest(n.ID, rescan[i])
		}

		// Fold in k. Parallel phase: evaluate cost(n, k) unless the bound
		// proves it cannot improve best[n]. Serial repair: candidates
		// pruned there may still matter for k's own best partner, so
		// re-examine them against the evolving ck.
		others := active[:len(active)-1]
		costs := make([]float64, len(others))
		exact := make([]bool, len(others))
		if err := r.parallelFor(len(others), func(i int) error {
			n := others[i]
			c, pruned, err := r.pairCostBounded(n, k, g.best[n.ID].cost)
			if err != nil {
				return err
			}
			costs[i] = c // exact cost, or the lower bound when pruned
			exact[i] = !pruned
			if !pruned {
				g.memoSet(n.ID, k.ID, c)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		ck := cand{}
		found := false
		fold := func(n *topology.Node, c float64) {
			if !found || c < ck.cost || (c == ck.cost && n.ID < ck.partner.ID) {
				ck = cand{partner: n, cost: c}
				found = true
			}
		}
		for i, n := range others {
			if exact[i] {
				fold(n, costs[i])
			}
		}
		for i, n := range others {
			if exact[i] {
				continue
			}
			thr := math.Inf(1)
			if found {
				if dominated(costs[i], ck.cost) {
					r.pairSkipped.Add(1)
					continue
				}
				thr = ck.cost
			}
			c, pruned, err := r.pairCostBounded(n, k, thr)
			if err != nil {
				return nil, err
			}
			if pruned {
				r.pairSkipped.Add(1)
				continue
			}
			g.memoSet(n.ID, k.ID, c)
			costs[i], exact[i] = c, true
			fold(n, c)
		}
		for i, n := range others {
			if !exact[i] {
				continue // pruned vs best[n]: provably no improvement
			}
			// Same rule as the reference fold-in (see runGreedyReference).
			if costs[i] < g.best[n.ID].cost ||
				(costs[i] == g.best[n.ID].cost && k.ID < g.best[n.ID].partner.ID) {
				g.setBest(n.ID, cand{partner: k, cost: costs[i]})
			}
		}
		g.setBest(k.ID, ck)
		if debugBestAudit != nil && len(active) > 1 {
			debugBestAudit(r, g, r.stats.Merges)
		}
	}
	return active[0], nil
}
