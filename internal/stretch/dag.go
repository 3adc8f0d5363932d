// Package stretch implements the DVFS (voltage/frequency selection) stage
// that runs after task mapping and ordering:
//
//   - Heuristic: the paper's online task-stretching heuristic (Figure 2), a
//     low-complexity slack-distribution pass that weights per-minterm
//     critical-path slack by branch and activation probabilities. This is
//     what makes runtime re-scheduling affordable.
//   - WorstCase: the probability-blind critical-path slack distribution used
//     to model reference algorithm 1 (Shin & Kim [10] / Wu et al. [9]
//     style).
//   - NLP: a convex-programming stretcher modeling reference algorithm 2
//     (Malani et al. [17]): minimize expected energy subject to deadline
//     constraints, solved by a penalty-method gradient descent.
//
// All three reason about the paths of the scheduled CTG — every maximal
// source→sink chain through real and schedule-induced pseudo edges, with the
// (unscalable) cross-PE communication delay folded into the path delay. The
// paper enumerates these paths explicitly ("calculate all possible paths
// using BFS"); since the critical path of a class is always the one with the
// largest delay (the lowest slack ratio for a common deadline), this
// implementation computes the same quantities with longest-path dynamic
// programming instead, which stays polynomial on graphs whose explicit path
// count explodes (fork-join ladders).
//
// A per-task query reads only the task's own DP entries and its critical
// chain, so it runs the DP on the task's cone alone: the up pass over its
// ancestors, the down pass over its descendants. A node's up value reads
// only its predecessors and its down values only its successors, so the
// cone's entries equal the whole-graph ones bit for bit. The heuristic's
// per-minterm DPs are further shared: minterms that agree on every fork
// guarding an edge the cone's DP tests yield identical cone values and the
// same critical chain, so only the first of them is run.
package stretch

import (
	"math"
	"slices"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/sched"
)

// dagModel is the scheduled graph the stretchers reason about: real +
// pseudo edges with mapping-resolved communication delays, and the current
// (speed-dependent) execution time of every task.
type dagModel struct {
	s     *sched.Schedule
	edges []ctg.Edge
	comm  []float64   // per combined-edge index
	guard []edgeGuard // per combined-edge index
	outE  [][]int     // per task: combined-edge indices
	inE   [][]int
	order []ctg.TaskID // topological order of the combined graph
	pos   []int32      // pos[t] is the index of t in order
	exec  []float64    // current execution times
}

// edgeGuard is the scenario test of one edge: the dense index of the fork
// whose outcome the edge's condition names (-1 for an unconditional edge)
// and that outcome.
type edgeGuard struct {
	fork, outcome int32
}

func newDAG(s *sched.Schedule) *dagModel { return new(dagModel).bind(s) }

// bind rebuilds the model for s in place, reusing every buffer that is large
// enough: a workspace rebinds once per new mapping, so the buffers of the
// previous one carry over.
func (d *dagModel) bind(s *sched.Schedule) *dagModel {
	g := s.G
	n := g.NumTasks()
	d.s = s
	d.edges = append(append(d.edges[:0], g.Edges()...), s.Pseudo...)
	d.comm = resize(d.comm, len(d.edges))
	d.guard = resize(d.guard, len(d.edges))
	d.outE, d.inE = resize(d.outE, n), resize(d.inE, n)
	for t := range d.outE {
		d.outE[t], d.inE[t] = d.outE[t][:0], d.inE[t][:0]
	}
	for ei, e := range d.edges {
		d.comm[ei] = s.P.CommTime(e.CommKB, s.PE[e.From], s.PE[e.To])
		d.guard[ei] = edgeGuard{fork: -1}
		if e.Cond.IsConditional() {
			d.guard[ei] = edgeGuard{fork: int32(g.ForkIndex(e.Cond.Branch())), outcome: int32(e.Cond.Outcome())}
		}
		d.outE[e.From] = append(d.outE[e.From], ei)
		d.inE[e.To] = append(d.inE[e.To], ei)
	}
	// The combined graph is acyclic: both real and pseudo edges point from
	// earlier to strictly later nominal start times, except between
	// mutually exclusive tasks, which carry no edges at all. Sorting by
	// (start, id) therefore yields a topological order.
	d.order = resize(d.order, n)
	for i := range d.order {
		d.order[i] = ctg.TaskID(i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := d.order[j-1], d.order[j]
			if s.Start[a] > s.Start[b] || (s.Start[a] == s.Start[b] && a > b) {
				d.order[j-1], d.order[j] = b, a
			} else {
				break
			}
		}
	}
	d.pos = resize(d.pos, n)
	for i, t := range d.order {
		d.pos[t] = int32(i)
	}
	d.exec = resize(d.exec, n)
	for t := 0; t < n; t++ {
		d.exec[t] = s.ExecTime(ctg.TaskID(t))
	}
	return d
}

// resize returns a length-n slice, reusing buf's storage when it fits.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// admits reports whether edge ei exists in the scenario assignment (nil
// admits every edge).
func (d *dagModel) admits(ei int, assign []int) bool {
	g := d.guard[ei]
	return g.fork < 0 || assign == nil || assign[g.fork] == int(g.outcome)
}

// cone lists the part of the combined graph a DP query about one task reads:
// its ancestors and its descendants, each in topological order and each
// including the task. The two lists share one buffer and meet at the task.
// Nodes are marked with a fresh stamp per scan, so nothing is cleared
// between queries.
type cone struct {
	anc, desc []ctg.TaskID
	nodes     []ctg.TaskID
	mark      []uint32
	stamp     uint32
}

func newCone(n int) cone {
	return cone{nodes: make([]ctg.TaskID, 0, n), mark: make([]uint32, n)}
}

// nextStamp returns a stamp no node carries yet.
func (c *cone) nextStamp() uint32 {
	c.stamp++
	if c.stamp == 0 {
		clear(c.mark)
		c.stamp = 1
	}
	return c.stamp
}

// build sets the cone to task t's: one backward scan of the topological
// order marks a node as an ancestor when one of its out-edges reaches a
// marked node, one forward scan marks a descendant when one of its in-edges
// leaves a marked node.
func (c *cone) build(d *dagModel, t ctg.TaskID) {
	p := int(d.pos[t])
	nodes := c.nodes[:0]
	stamp := c.nextStamp()
	c.mark[t] = stamp
	for i := p - 1; i >= 0; i-- {
		v := d.order[i]
		for _, ei := range d.outE[v] {
			if c.mark[d.edges[ei].To] == stamp {
				c.mark[v] = stamp
				nodes = append(nodes, v)
				break
			}
		}
	}
	slices.Reverse(nodes)
	nodes = append(nodes, t)
	k := len(nodes)
	stamp = c.nextStamp()
	c.mark[t] = stamp
	for _, v := range d.order[p+1:] {
		for _, ei := range d.inE[v] {
			if c.mark[d.edges[ei].From] == stamp {
				c.mark[v] = stamp
				nodes = append(nodes, v)
				break
			}
		}
	}
	c.nodes, c.anc, c.desc = nodes, nodes[:k], nodes[k-1:]
}

// refreshExec re-reads the execution time of one task after its speed
// changed.
func (d *dagModel) refreshExec(t ctg.TaskID) { d.exec[t] = d.s.ExecTime(t) }

// negInf marks a path class that does not exist below a node.
var negInf = math.Inf(-1)

// dpResult holds, per task, the longest-path decomposition of the scheduled
// graph (optionally restricted to the edges consistent with one scenario):
//
//	up[v]    — the largest delay of any chain ending just before v
//	downU[v] — the largest remaining delay after v over suffixes containing
//	           NO conditional edge (prob(p, v) = 1 class), or -Inf
//	downC[v] — the same over suffixes containing at least one conditional
//	           edge (prob(p, v) ≠ 1 class), or -Inf
//	probC[v] — the joint branch probability of the argmax downC suffix,
//	           i.e. prob(p_worst, v) of the paper
//
// Backpointers permit reconstructing the argmax chains so that a critical
// path shared by several minterms can be recognized and counted once.
type dpResult struct {
	up, downU, downC, probC []float64
	ubp                     []int  // argmax incoming edge, -1 at chain start
	dbpU, dbpC              []int  // argmax outgoing edge per class, -1 at end
	classA                  []byte // which class wins downAny: 'U' or 'C'
}

// downAny returns max(downU, downC) for v.
func (r *dpResult) downAny(v ctg.TaskID) float64 {
	if r.downU[v] >= r.downC[v] {
		return r.downU[v]
	}
	return r.downC[v]
}

// newDPResult allocates a decomposition for an n-task graph.
func newDPResult(n int) *dpResult {
	return &dpResult{
		up:     make([]float64, n),
		downU:  make([]float64, n),
		downC:  make([]float64, n),
		probC:  make([]float64, n),
		ubp:    make([]int, n),
		dbpU:   make([]int, n),
		dbpC:   make([]int, n),
		classA: make([]byte, n),
	}
}

// run computes the decomposition. assign restricts edges to those whose
// condition the scenario assignment satisfies; nil means the full graph.
//
// Note on truncated suffixes: in a scenario-restricted graph, a fork the
// scenario never assigns has no consistent conditional out-edges, so chains
// "end" there even though the unrestricted graph continues. Such truncated
// suffixes can only shorten candidate delays; since criticality always takes
// the *largest* delay, they never displace a real critical path.
func (d *dagModel) run(assign []int) *dpResult {
	return d.runInto(newDPResult(len(d.exec)), assign)
}

// runInto is run reusing a previously allocated decomposition — the
// stretchers call the DP once per (task, minterm) pair, so buffer reuse is
// what keeps the inner loop allocation-free. Every slot of r is overwritten.
func (d *dagModel) runInto(r *dpResult, assign []int) *dpResult {
	return d.runCone(r, assign, d.order, d.order)
}

// runCone computes the decomposition on a cone: the up pass over anc and the
// down pass over desc, both given in topological order. Each up value reads
// only predecessors and each down value only successors, so when anc is
// closed under predecessors and desc under successors (a task's cone, or the
// whole order) every slot they list equals its whole-graph value bit for bit.
// The other slots keep stale values and must not be read.
func (d *dagModel) runCone(r *dpResult, assign []int, anc, desc []ctg.TaskID) *dpResult {
	g := d.s.G

	// Upward pass in topological order.
	for _, v := range anc {
		r.up[v], r.ubp[v] = 0, -1
		for _, ei := range d.inE[v] {
			if !d.admits(ei, assign) {
				continue
			}
			u := d.edges[ei].From
			if cand := r.up[u] + d.exec[u] + d.comm[ei]; cand > r.up[v] {
				r.up[v], r.ubp[v] = cand, ei
			}
		}
	}

	// Downward pass in reverse topological order.
	for i := len(desc) - 1; i >= 0; i-- {
		v := desc[i]
		hasOut := false
		for _, ei := range d.outE[v] {
			if d.admits(ei, assign) {
				hasOut = true
				break
			}
		}
		if !hasOut {
			r.downU[v], r.dbpU[v] = 0, -1
			r.downC[v], r.dbpC[v] = negInf, -1
			r.probC[v] = 0
			r.classA[v] = 'U'
			continue
		}
		r.downU[v], r.dbpU[v] = negInf, -1
		r.downC[v], r.dbpC[v] = negInf, -1
		r.probC[v] = 0
		for _, ei := range d.outE[v] {
			if !d.admits(ei, assign) {
				continue
			}
			e := d.edges[ei]
			w := e.To
			step := d.comm[ei] + d.exec[w]
			// U class: unconditional edge, continuation also U.
			if !e.Cond.IsConditional() && r.downU[w] > negInf {
				if cand := step + r.downU[w]; cand > r.downU[v] {
					r.downU[v], r.dbpU[v] = cand, ei
				}
			}
			// C class.
			if e.Cond.IsConditional() {
				// The conditional edge itself satisfies the class; the
				// continuation may be anything.
				cont := r.downAny(w)
				if cont > negInf {
					if cand := step + cont; cand > r.downC[v] {
						contProb := 1.0
						if r.classA[w] == 'C' {
							contProb = r.probC[w]
						}
						r.downC[v], r.dbpC[v] = cand, ei
						r.probC[v] = g.CondProb(e.Cond) * contProb
					}
				}
			} else if r.downC[w] > negInf {
				if cand := step + r.downC[w]; cand > r.downC[v] {
					r.downC[v], r.dbpC[v] = cand, ei
					r.probC[v] = r.probC[w]
				}
			}
		}
		if r.downU[v] >= r.downC[v] {
			r.classA[v] = 'U'
		} else {
			r.classA[v] = 'C'
		}
	}
	return r
}

// throughAny returns the largest delay of any chain through v (the paper's
// critical spanning path of step 9): up + exec + max(downU, downC).
func (d *dagModel) throughAny(r *dpResult, v ctg.TaskID) float64 {
	down := r.downAny(v)
	if down == negInf {
		down = 0
	}
	return r.up[v] + d.exec[v] + down
}

// longest returns the longest chain delay in the decomposition (the worst
// path delay of the whole schedule).
func (d *dagModel) longest(r *dpResult) float64 {
	best := 0.0
	for t := range d.exec {
		if l := d.throughAny(r, ctg.TaskID(t)); l > best {
			best = l
		}
	}
	return best
}

// walkCritical traverses the argmax chain through v whose suffix has the
// given class ('U' or 'C'), invoking node for every task on the chain and
// edge for every edge.
func (r *dpResult) walkCritical(d *dagModel, v ctg.TaskID, class byte,
	node func(ctg.TaskID), edge func(ei int)) {
	// Upward walk (prefix, visited from v back to the chain start).
	for u := v; ; {
		node(u)
		ei := r.ubp[u]
		if ei < 0 {
			break
		}
		edge(ei)
		u = d.edges[ei].From
	}
	// Downward walk in the requested class.
	for u := v; ; {
		var ei int
		switch class {
		case 'U':
			ei = r.dbpU[u]
		case 'C':
			ei = r.dbpC[u]
		case 'A':
			class = r.classA[u]
			continue
		}
		if ei < 0 {
			break
		}
		e := d.edges[ei]
		if class == 'C' && e.Cond.IsConditional() {
			class = 'A'
		}
		edge(ei)
		u = e.To
		node(u)
	}
}

// pathSet deduplicates int32 sequences: critical-path node sequences, so
// that a chain found critical for several minterms is counted once by the
// heuristic, and minterm restrictions to a task's cone, so that minterms
// sharing one are run once. Sequences are interned in a reusable int32 arena and looked up by FNV-1a hash with exact sequence
// verification on hash hits, so dedup semantics are identical to string
// comparison with zero steady-state allocation.
type pathSet struct {
	arena []int32 // all interned sequences, concatenated
	// entries hold the interned [start, end) spans as hash-chained nodes:
	// heads maps a hash to the 1-based index of its newest entry and each
	// entry links to the previous one with the same hash. Chaining through a
	// flat slice (instead of map[hash][]span) keeps the steady state
	// allocation-free: reset truncates the slice and clears the map, and
	// re-populating an already-sized map and slice allocates nothing.
	entries []pathSpan
	heads   map[uint64]int32 // hash -> 1-based index into entries (0 = none)
	buf     []int32          // scratch for the sequence being tested
}

// pathSpan is one interned sequence: [start, end) in the arena plus the
// 1-based index of the previous entry with the same hash.
type pathSpan struct {
	start, end int32
	prev       int32
}

// reset clears the set, retaining capacity.
func (p *pathSet) reset() {
	p.arena = p.arena[:0]
	p.entries = p.entries[:0]
	if p.heads == nil {
		p.heads = make(map[uint64]int32)
	} else {
		clear(p.heads)
	}
}

// fnv1a hashes an int32 sequence (FNV-1a over the little-endian bytes).
func fnv1a(seq []int32) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range seq {
		u := uint32(v)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= prime
		}
	}
	return h
}

// addCritical reconstructs the argmax chain through v with the given suffix
// class and adds its node sequence to the set, reporting whether it was new.
func (p *pathSet) addCritical(r *dpResult, d *dagModel, v ctg.TaskID, class byte) bool {
	p.buf = p.buf[:0]
	r.walkCritical(d, v, class, func(u ctg.TaskID) {
		p.buf = append(p.buf, int32(u))
	}, func(int) {})
	return p.add(p.buf)
}

// add interns a sequence, reporting whether it was new.
func (p *pathSet) add(seq []int32) bool {
	h := fnv1a(seq)
	for idx := p.heads[h]; idx != 0; {
		span := p.entries[idx-1]
		idx = span.prev
		if int(span.end-span.start) != len(seq) {
			continue
		}
		match := true
		for i, u := range p.arena[span.start:span.end] {
			if u != seq[i] {
				match = false
				break
			}
		}
		if match {
			return false
		}
	}
	start := int32(len(p.arena))
	p.arena = append(p.arena, seq...)
	p.entries = append(p.entries, pathSpan{start: start, end: int32(len(p.arena)), prev: p.heads[h]})
	p.heads[h] = int32(len(p.entries))
	return true
}

// criticalDenominator returns the distributable delay of the argmax chain
// through v with the given suffix class: the execution time of the not yet
// locked tasks plus the (unscalable) communication delay. Locked tasks are
// "released from consideration" (paper §III.A), so the remaining slack is
// shared among the tasks that can still absorb it.
func (r *dpResult) criticalDenominator(d *dagModel, v ctg.TaskID, class byte, locked []bool) float64 {
	denom := 0.0
	r.walkCritical(d, v, class, func(u ctg.TaskID) {
		if !locked[u] {
			denom += d.exec[u]
		}
	}, func(ei int) {
		denom += d.comm[ei]
	})
	return denom
}
