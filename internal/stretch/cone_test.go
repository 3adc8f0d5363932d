package stretch

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// combinedEdges lists the schedule's real and pseudo edges in the order
// newDAG indexes them.
func combinedEdges(s *sched.Schedule) []ctg.Edge {
	return append(append([]ctg.Edge(nil), s.G.Edges()...), s.Pseudo...)
}

// edgeAdmitted is the scenario filter read straight from the edge's
// condition (nil admits every edge).
func edgeAdmitted(g *ctg.Graph, e ctg.Edge, assign []int) bool {
	c := e.Cond
	return !c.IsConditional() || assign == nil || assign[g.ForkIndex(c.Branch())] == c.Outcome()
}

// enumeratedPath is one maximal source→sink path: its nodes and the edges
// between them (indices into combinedEdges).
type enumeratedPath struct {
	nodes []ctg.TaskID
	edges []int
}

// enumeratePaths lists, breadth first, every maximal source→sink path of the
// combined graph restricted to the edges the assignment admits — the
// paper's explicit path enumeration.
func enumeratePaths(s *sched.Schedule, assign []int) []enumeratedPath {
	g := s.G
	edges := combinedEdges(s)
	n := g.NumTasks()
	out := make([][]int, n)
	hasIn := make([]bool, n)
	for ei, e := range edges {
		if edgeAdmitted(g, e, assign) {
			out[e.From] = append(out[e.From], ei)
			hasIn[e.To] = true
		}
	}
	var queue, done []enumeratedPath
	for v := 0; v < n; v++ {
		if !hasIn[v] {
			queue = append(queue, enumeratedPath{nodes: []ctg.TaskID{ctg.TaskID(v)}})
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		last := p.nodes[len(p.nodes)-1]
		if len(out[last]) == 0 {
			done = append(done, p)
			continue
		}
		for _, ei := range out[last] {
			queue = append(queue, enumeratedPath{
				nodes: append(slices.Clip(p.nodes), edges[ei].To),
				edges: append(slices.Clip(p.edges), ei),
			})
		}
	}
	return done
}

// pathBests holds, per task, the largest delay over the enumerated paths
// through it: all of them, and split by whether the suffix after the task
// carries a conditional edge.
type pathBests struct {
	all, uncond, cond []float64
}

func bestThrough(s *sched.Schedule, paths []enumeratedPath) pathBests {
	n := s.G.NumTasks()
	edges := combinedEdges(s)
	b := pathBests{make([]float64, n), make([]float64, n), make([]float64, n)}
	for t := 0; t < n; t++ {
		b.all[t], b.uncond[t], b.cond[t] = negInf, negInf, negInf
	}
	for _, p := range paths {
		delay := 0.0
		for _, v := range p.nodes {
			delay += s.ExecTime(v)
		}
		for _, ei := range p.edges {
			e := edges[ei]
			delay += s.P.CommTime(e.CommKB, s.PE[e.From], s.PE[e.To])
		}
		for i, v := range p.nodes {
			condSuffix := false
			for _, ei := range p.edges[i:] {
				condSuffix = condSuffix || edges[ei].Cond.IsConditional()
			}
			b.all[v] = math.Max(b.all[v], delay)
			if condSuffix {
				b.cond[v] = math.Max(b.cond[v], delay)
			} else {
				b.uncond[v] = math.Max(b.uncond[v], delay)
			}
		}
	}
	return b
}

// poison fills a decomposition with values no DP writes, so a read of a slot
// outside the cone yields NaN or an out-of-range edge.
func poison(r *dpResult) {
	for v := range r.up {
		r.up[v], r.downU[v], r.downC[v], r.probC[v] = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		r.ubp[v], r.dbpU[v], r.dbpC[v], r.classA[v] = math.MaxInt32, math.MaxInt32, math.MaxInt32, 'X'
	}
}

// closeTo compares two path delays up to a 1e-9 relative tolerance (the DP
// and the enumeration sum in different orders); -Inf matches only -Inf.
func closeTo(got, want float64) bool {
	if math.IsInf(got, -1) || math.IsInf(want, -1) {
		return got == want
	}
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}

// TestConeDPMatchesPathEnumeration is the second oracle of the slack DP: on
// random CTGs small enough to enumerate, for every task and every minterm of
// Γ(τ) (and the unrestricted graph), the cone DP's class delays and
// throughAny must equal the largest delay over the explicitly enumerated
// paths through the task, and the critical chain it walks must carry that
// delay and the probability the DP reports. The decomposition is poisoned
// before every query, so a read outside the cone shows.
func TestConeDPMatchesPathEnumeration(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, stretched := range []bool{false, true} {
			s := prepare(t, seed, 1.6)
			if stretched {
				if _, err := Heuristic(s, platform.Continuous()); err != nil {
					t.Fatal(err)
				}
			}
			a := s.A
			n := s.G.NumTasks()
			dag := newDAG(s)
			c := newCone(n)
			r := newDPResult(n)
			check := func(assign []int, label string, b pathBests, task ctg.TaskID) {
				name := fmt.Sprintf("seed %d stretched %v task %d %s", seed, stretched, task, label)
				poison(r)
				c.build(dag, task)
				dag.runCone(r, assign, c.anc, c.desc)
				head := r.up[task] + dag.exec[task]
				if got := head + r.downU[task]; !closeTo(got, b.uncond[task]) {
					t.Fatalf("%s: U-class delay %v, enumeration %v", name, got, b.uncond[task])
				}
				if got := head + r.downC[task]; !closeTo(got, b.cond[task]) {
					t.Fatalf("%s: C-class delay %v, enumeration %v", name, got, b.cond[task])
				}
				if got := dag.throughAny(r, task); !closeTo(got, b.all[task]) {
					t.Fatalf("%s: throughAny %v, enumeration %v", name, got, b.all[task])
				}
				if r.downC[task] == negInf {
					return
				}
				// The walk visits the prefix first; the suffix starts at the
				// first edge leaving the task.
				delay, prob, suffix := 0.0, 1.0, false
				r.walkCritical(dag, task, 'C', func(u ctg.TaskID) {
					delay += dag.exec[u]
				}, func(ei int) {
					e := dag.edges[ei]
					delay += dag.comm[ei]
					suffix = suffix || e.From == task
					if suffix && e.Cond.IsConditional() {
						prob *= s.G.CondProb(e.Cond)
					}
				})
				if !closeTo(delay, head+r.downC[task]) {
					t.Fatalf("%s: critical C chain carries %v, DP %v", name, delay, head+r.downC[task])
				}
				if !closeTo(prob, r.probC[task]) {
					t.Fatalf("%s: critical C chain probability %v, DP %v", name, prob, r.probC[task])
				}
			}

			all := bestThrough(s, enumeratePaths(s, nil))
			for task := 0; task < n; task++ {
				check(nil, "unrestricted", all, ctg.TaskID(task))
			}
			for si := 0; si < a.NumScenarios(); si++ {
				assign := a.Scenario(si).Assign
				b := bestThrough(s, enumeratePaths(s, assign))
				for task := 0; task < n; task++ {
					if a.ActivationSet(ctg.TaskID(task)).Get(si) {
						check(assign, fmt.Sprintf("minterm %d", si), b, ctg.TaskID(task))
					}
				}
			}
		}
	}
}

// TestConeWorkCount pins the work the cone restriction and minterm sharing
// save, without timing: one stretch pass over mpeg at 1.6× runs exactly one
// per-minterm DP per distinct restriction of Γ(τ)'s minterms to the forks
// guarding τ's cone edges (re-derived here from a reachability closure), and
// visits at most 40% of the nodes the whole-graph DPs visited.
func TestConeWorkCount(t *testing.T) {
	g, p, err := mpeg.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := oracleSchedule(t, g, p, 1.6)
	a := s.A
	n := s.G.NumTasks()
	edges := combinedEdges(s)

	// reaches[u][v]: v is reachable from u (u included).
	reaches := make([][]bool, n)
	for u := range reaches {
		reaches[u] = make([]bool, n)
		reaches[u][u] = true
		stack := []ctg.TaskID{ctg.TaskID(u)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range edges {
				if e.From == v && !reaches[u][e.To] {
					reaches[u][e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
	}
	wantDPs, minterms, wholeNodes := 0, 0, 0
	for task := 0; task < n; task++ {
		var forks []int
		for _, e := range edges {
			if e.Cond.IsConditional() && (reaches[e.To][task] || reaches[task][e.From]) {
				forks = append(forks, s.G.ForkIndex(e.Cond.Branch()))
			}
		}
		slices.Sort(forks)
		forks = slices.Compact(forks)
		distinct := map[string]bool{}
		gamma := a.ActivationSet(ctg.TaskID(task))
		gamma.ForEach(func(si int) {
			key := ""
			for _, f := range forks {
				key += fmt.Sprintf("%d,", a.Scenario(si).Assign[f])
			}
			distinct[key] = true
			minterms++
		})
		wantDPs += len(distinct)
		wholeNodes += (1 + gamma.Count()) * 2 * n
	}

	ws := NewWorkspace()
	ws.Rebind(s)
	if _, err := HeuristicPartial(s, platform.Continuous(), 0, allTasks(s), ws); err != nil {
		t.Fatal(err)
	}
	t.Logf("minterm DPs %d of %d minterms; nodes visited %d of %d whole-graph", ws.scratch.mintermDPs, minterms, ws.scratch.nodes, wholeNodes)
	if ws.scratch.mintermDPs != wantDPs {
		t.Fatalf("ran %d minterm DPs, want one per distinct cone restriction: %d", ws.scratch.mintermDPs, wantDPs)
	}
	if wantDPs >= minterms {
		t.Fatalf("%d distinct cone restrictions of %d minterms: nothing shared", wantDPs, minterms)
	}
	if 10*ws.scratch.nodes > 4*wholeNodes {
		t.Fatalf("visited %d nodes, more than 40%% of the whole-graph %d", ws.scratch.nodes, wholeNodes)
	}
}
