package stretch

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// referenceHeuristic is a self-contained Figure 2 task loop that shares no
// state handling with Workspace and no slack computation with the package:
// a fresh DAG model and lock vector, every task in DLS order, starting from
// the schedule's current speeds, each slack from legacyCalculateSlack. It is
// the differential oracle every single-speed entry point must match bit for
// bit, and the one a faster slack computation must keep matching.
func referenceHeuristic(s *sched.Schedule, d platform.DVFS, literalRatio bool, guard float64) *Result {
	res := legacyStretch(s, d, literalRatio, guard, make([]bool, s.G.NumTasks()))
	res.ExpectedEnergy = s.ExpectedEnergy()
	return res
}

// legacyStretch is the Figure 2 task loop over the tasks not yet locked,
// computing every slack with the whole-graph legacy DP. locked is updated in
// place; ExpectedEnergy is left zero.
func legacyStretch(s *sched.Schedule, d platform.DVFS, literalRatio bool, guard float64, locked []bool) *Result {
	dag := newDAG(s)
	scratch := newLegacyScratch(s.G.NumTasks())
	res := &Result{}
	for _, t := range s.Order {
		if locked[t] {
			continue
		}
		slk := legacyCalculateSlack(dag, t, locked, literalRatio, scratch)
		if slk > 0 {
			wcet := s.WCET(t)
			res.SlackFound += slk
			speed := d.GuardedSpeedForTime(wcet, wcet+slk, guard)
			if speed < 1 {
				s.Speed[t] = speed
				dag.refreshExec(t)
				res.Stretched++
				res.SlackUsed += wcet/speed - wcet
			}
		}
		locked[t] = true
	}
	res.WorstDelay = dag.longest(legacyRunInto(dag, newDPResult(s.G.NumTasks()), nil))
	return res
}

// legacyScratch is the legacy slack computation's buffers: two whole-graph
// decompositions and a string-keyed critical-chain set.
type legacyScratch struct {
	full, minterm *dpResult
	seen          map[string]bool
}

func newLegacyScratch(n int) *legacyScratch {
	return &legacyScratch{full: newDPResult(n), minterm: newDPResult(n), seen: map[string]bool{}}
}

// legacyRunInto is the whole-graph longest-path DP the cone-restricted one
// replaced, kept verbatim as an oracle: every node in both passes, and the
// edge filter read from the edge's condition on every visit.
func legacyRunInto(d *dagModel, r *dpResult, assign []int) *dpResult {
	n := len(d.exec)
	g := d.s.G
	ok := func(ei int) bool {
		if assign == nil {
			return true
		}
		c := d.edges[ei].Cond
		if !c.IsConditional() {
			return true
		}
		return assign[g.ForkIndex(c.Branch())] == c.Outcome()
	}

	// Upward pass in topological order.
	for _, v := range d.order {
		r.up[v], r.ubp[v] = 0, -1
		for _, ei := range d.inE[v] {
			if !ok(ei) {
				continue
			}
			u := d.edges[ei].From
			if cand := r.up[u] + d.exec[u] + d.comm[ei]; cand > r.up[v] {
				r.up[v], r.ubp[v] = cand, ei
			}
		}
	}

	// Downward pass in reverse topological order.
	for i := n - 1; i >= 0; i-- {
		v := d.order[i]
		hasOut := false
		for _, ei := range d.outE[v] {
			if ok(ei) {
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
			if !ok(ei) {
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

// legacyWalkCritical is the argmax-chain walk, kept verbatim as an oracle.
func legacyWalkCritical(r *dpResult, d *dagModel, v ctg.TaskID, class byte,
	node func(ctg.TaskID), edge func(ei int)) {
	for u := v; ; {
		node(u)
		ei := r.ubp[u]
		if ei < 0 {
			break
		}
		edge(ei)
		u = d.edges[ei].From
	}
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

// legacyCriticalDenominator is the distributable delay of the argmax chain
// through v, kept verbatim as an oracle.
func legacyCriticalDenominator(r *dpResult, d *dagModel, v ctg.TaskID, class byte, locked []bool) float64 {
	denom := 0.0
	legacyWalkCritical(r, d, v, class, func(u ctg.TaskID) {
		if !locked[u] {
			denom += d.exec[u]
		}
	}, func(ei int) {
		denom += d.comm[ei]
	})
	return denom
}

// legacyCalculateSlack is CalculateSlack as it ran before the cone
// restriction, kept as an oracle: one whole-graph DP, then one whole-graph
// DP for every minterm in Γ(τ), critical chains deduplicated by their node
// sequence rendered as a string.
func legacyCalculateSlack(dag *dagModel, t ctg.TaskID, locked []bool, literalRatio bool, scratch *legacyScratch) float64 {
	s := dag.s
	a := s.A
	deadline := s.G.Deadline()
	wcet := s.WCET(t)
	probT := a.ActivationProb(t)

	// Full-graph decomposition: slk2 and the step-9 clamp.
	full := legacyRunInto(dag, scratch.full, nil)

	// slk1: probability-weighted sum of per-minterm critical chain shares.
	slk1 := 0.0
	slk1Valid := false
	clear(scratch.seen)
	gamma := a.ActivationSet(t)
	gamma.ForEach(func(si int) {
		sc := a.Scenario(si)
		r := legacyRunInto(dag, scratch.minterm, sc.Assign)
		if r.downC[t] == negInf {
			return // no chain with downstream uncertainty in this minterm
		}
		slk1Valid = true
		var chain strings.Builder
		legacyWalkCritical(r, dag, t, 'C', func(u ctg.TaskID) {
			fmt.Fprintf(&chain, "%d,", u)
		}, func(int) {})
		if scratch.seen[chain.String()] {
			return // shared critical path: count once
		}
		scratch.seen[chain.String()] = true
		delay := r.up[t] + dag.exec[t] + r.downC[t]
		denom := delay
		if !literalRatio {
			denom = legacyCriticalDenominator(r, dag, t, 'C', locked)
		}
		if ratio := (deadline - delay) / denom; ratio > 0 {
			slk1 += r.probC[t] * wcet * ratio * probT
		}
	})

	// slk2: critical (largest-delay) chain with prob(p, τ) = 1.
	slk2 := math.Inf(1)
	slk2Valid := false
	if full.downU[t] > negInf {
		slk2Valid = true
		delay := full.up[t] + dag.exec[t] + full.downU[t]
		denom := delay
		if !literalRatio {
			denom = legacyCriticalDenominator(full, dag, t, 'U', locked)
		}
		slk2 = wcet * (deadline - delay) / denom * probT
	}

	var slk float64
	switch {
	case slk1Valid && slk2Valid:
		slk = math.Min(slk1, slk2)
	case slk1Valid:
		slk = slk1
	case slk2Valid:
		slk = slk2
	default:
		return 0
	}

	// Step 9: never exceed the slack of the worst chain through τ, so the
	// deadline holds on every chain.
	if m := deadline - dag.throughAny(full, t); slk > m {
		slk = m
	}
	if slk < 0 || math.IsInf(slk, 1) {
		return 0
	}
	return slk
}

// oracleSchedule schedules g on p with the deadline set to factor × the
// nominal modified-DLS makespan.
func oracleSchedule(t *testing.T, g *ctg.Graph, p *platform.Platform, factor float64) *sched.Schedule {
	t.Helper()
	a, err := ctg.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := sched.DLS(a, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := g.WithDeadline(factor * s0.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ctg.Analyze(g2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DLS(a2, p, sched.Modified())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEntryPointsMatchReferenceHeuristic is the differential oracle of the
// single-speed stretchers: Heuristic, HeuristicGuarded, HeuristicVariant
// (both ratio readings) and HeuristicPartial with every task affected must
// reproduce referenceHeuristic bit for bit — every speed, the slack
// accounting, the worst-case delay and the expected energy — on the three
// application CTGs and the random CTGs, across deadline tightness and guard
// levels.
func TestEntryPointsMatchReferenceHeuristic(t *testing.T) {
	d := platform.Continuous()
	for _, factor := range []float64{1.2, 1.6, 2.5} {
		cases := oracleCases(t, factor)
		for _, c := range cases {
			for _, guard := range []float64{0, 0.2, 1} {
				name := fmt.Sprintf("%s factor %v guard %v", c.name, factor, guard)
				ref := c.s.Clone()
				want := referenceHeuristic(ref, d, false, guard)

				got := c.s.Clone()
				res, err := HeuristicGuarded(got, d, 0, guard)
				if err != nil {
					t.Fatal(err)
				}
				sameStretch(t, name+" HeuristicGuarded", ref, got, want, res)

				got = c.s.Clone()
				ws := NewWorkspace()
				ws.Rebind(got)
				partial, err := HeuristicPartial(got, d, guard, allTasks(got), ws)
				if err != nil {
					t.Fatal(err)
				}
				partial.ExpectedEnergy = got.ExpectedEnergy()
				sameStretch(t, name+" HeuristicPartial", ref, got, want, &partial)

				if guard != 0 {
					continue
				}
				got = c.s.Clone()
				if res, err = Heuristic(got, d); err != nil {
					t.Fatal(err)
				}
				sameStretch(t, name+" Heuristic", ref, got, want, res)

				for _, literal := range []bool{false, true} {
					ref := c.s.Clone()
					want := referenceHeuristic(ref, d, literal, 0)
					got := c.s.Clone()
					res, err := HeuristicVariant(got, d, literal)
					if err != nil {
						t.Fatal(err)
					}
					sameStretch(t, fmt.Sprintf("%s HeuristicVariant literal=%v", name, literal), ref, got, want, res)
				}
			}
		}
	}
}

// sameStretch fails unless two stretched schedules and their results agree
// bit for bit.
func sameStretch(t *testing.T, name string, ref, got *sched.Schedule, want, res *Result) {
	t.Helper()
	for task := range ref.Speed {
		if ref.Speed[task] != got.Speed[task] {
			t.Fatalf("%s: task %d speed %v, reference %v", name, task, got.Speed[task], ref.Speed[task])
		}
	}
	if *res != *want {
		t.Fatalf("%s: result %+v, reference %+v", name, *res, *want)
	}
}

// oracleCase is one scheduled workload of the differential oracles.
type oracleCase struct {
	name string
	s    *sched.Schedule
}

// oracleCases schedules the three application CTGs and ten random CTGs with
// the deadline at factor × the nominal makespan.
func oracleCases(t *testing.T, factor float64) []oracleCase {
	t.Helper()
	workloads := []struct {
		name  string
		build func() (*ctg.Graph, *platform.Platform, error)
	}{
		{"mpeg", mpeg.Build},
		{"wlan", wlan.Build},
		{"cruise", cruise.Build},
	}
	var cases []oracleCase
	for _, w := range workloads {
		g, p, err := w.build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{w.name, oracleSchedule(t, g, p, factor)})
	}
	for seed := int64(0); seed < 10; seed++ {
		cases = append(cases, oracleCase{fmt.Sprintf("random/%d", seed), prepare(t, seed, factor)})
	}
	return cases
}

// driftMask is the warm-start affected mask of a drift confined to fork fi:
// the fork itself and every task whose activation set is split across the
// fork's outcomes.
func driftMask(a *ctg.Analysis, fi int) []bool {
	g := a.Graph()
	fork := g.Forks()[fi]
	sets := make([]ctg.Bitset, g.Outcomes(fork))
	for o := range sets {
		sets[o] = ctg.NewBitset(a.NumScenarios())
	}
	for si := 0; si < a.NumScenarios(); si++ {
		if o := a.Scenario(si).Assign[fi]; o >= 0 {
			sets[o].Set(si)
		}
	}
	mask := make([]bool, g.NumTasks())
	mask[fork] = true
	for t := range mask {
		hits := 0
		for _, so := range sets {
			if a.ActivationSet(ctg.TaskID(t)).Intersects(so) {
				hits++
			}
		}
		if hits >= 1 && hits < len(sets) {
			mask[t] = true
		}
	}
	return mask
}

// TestPartialMatchesLegacyLoop is the oracle of genuinely partial passes:
// on a stretched incumbent, HeuristicPartial with a one-fork drift mask must
// equal the legacy task loop started from the same state — affected tasks
// reset to full speed, every other task locked at its incumbent speed.
func TestPartialMatchesLegacyLoop(t *testing.T) {
	d := platform.Continuous()
	for _, factor := range []float64{1.2, 1.6, 2.5} {
		for _, c := range oracleCases(t, factor) {
			for _, guard := range []float64{0, 0.2} {
				incumbent := c.s.Clone()
				if _, err := HeuristicGuarded(incumbent, d, 0, guard); err != nil {
					t.Fatal(err)
				}
				ws := NewWorkspace()
				ws.Rebind(incumbent)
				for fi := 0; fi < c.s.G.NumForks(); fi++ {
					name := fmt.Sprintf("%s factor %v guard %v fork %d", c.name, factor, guard, fi)
					mask := driftMask(c.s.A, fi)

					ref := incumbent.Clone()
					locked := make([]bool, len(mask))
					for task, hit := range mask {
						if hit {
							ref.Speed[task] = 1
						}
						locked[task] = !hit
					}
					want := legacyStretch(ref, d, false, guard, locked)

					got := incumbent.Clone()
					res, err := HeuristicPartial(got, d, guard, mask, ws)
					if err != nil {
						t.Fatal(err)
					}
					sameStretch(t, name, ref, got, want, &res)
				}
			}
		}
	}
}

// legacyScenarioStretch is scenarioStretch as it ran before the cone
// restriction, kept as an oracle: one whole-graph legacy DP per task.
func legacyScenarioStretch(s *sched.Schedule, d platform.DVFS, si int, scr *scenarioScratch, guard float64) []float64 {
	sc := s.A.Scenario(si)
	scr.load(sc.Active)
	dag := &scr.view
	deadline := s.G.Deadline()
	speeds := make([]float64, len(dag.exec))
	for t := range speeds {
		speeds[t] = 1
	}
	for _, t := range s.Order {
		if sc.Active.Get(int(t)) {
			r := legacyRunInto(dag, scr.dp, sc.Assign)
			delay := dag.throughAny(r, t)
			if slack := deadline - delay; slack > 0 {
				denom := legacyCriticalDenominator(r, dag, t, 'A', scr.locked)
				wcet := s.WCET(t)
				slk := wcet * slack / denom
				if slk > slack {
					slk = slack
				}
				if slk > 0 {
					speed := d.GuardedSpeedForTime(wcet, wcet+slk, guard)
					if speed < 1 {
						speeds[t] = speed
						dag.exec[t] = wcet / speed
					}
				}
			}
		}
		scr.locked[t] = true
	}
	return speeds
}

// TestPerScenarioMatchesLegacy checks PerScenario bit for bit against the
// legacy per-scenario loop followed by the causality fold.
func TestPerScenarioMatchesLegacy(t *testing.T) {
	d := platform.Continuous()
	for _, factor := range []float64{1.2, 1.6, 2.5} {
		for _, c := range oracleCases(t, factor) {
			for _, guard := range []float64{0, 0.2} {
				s := c.s
				a := s.A
				base := newDAG(s)
				ideal := make([][]float64, a.NumScenarios())
				for si := range ideal {
					ideal[si] = legacyScenarioStretch(s, d, si, newScenarioScratch(base), guard)
				}
				want := make([][]float64, len(ideal))
				for si := range want {
					want[si] = append([]float64(nil), ideal[si]...)
				}
				radix := make([]uint64, s.G.NumForks())
				for fi, fork := range s.G.Forks() {
					radix[fi] = uint64(s.G.Outcomes(fork)) + 1
				}
				anc := ancestorForkSets(s)
				for task := range anc {
					foldTaskSpeeds(a, anc[task], radix, ideal, want, task)
				}

				got, err := PerScenario(s, d, guard, nil)
				if err != nil {
					t.Fatal(err)
				}
				for si := range want {
					for task := range want[si] {
						if got.Speeds[si][task] != want[si][task] {
							t.Fatalf("%s factor %v guard %v: scenario %d task %d speed %v, legacy %v",
								c.name, factor, guard, si, task, got.Speeds[si][task], want[si][task])
						}
					}
				}
			}
		}
	}
}

// legacyWorstCase is WorstCase as it ran before the cone restriction, kept
// as an oracle: a fresh whole-graph legacy DP per task.
func legacyWorstCase(s *sched.Schedule, d platform.DVFS) *Result {
	dag := newDAG(s)
	n := s.G.NumTasks()
	deadline := s.G.Deadline()
	res := &Result{}
	for _, t := range s.Order {
		r := legacyRunInto(dag, newDPResult(n), nil)
		delay := dag.throughAny(r, t)
		slack := deadline - delay
		if slack <= 0 {
			continue
		}
		wcet := s.WCET(t)
		slk := wcet * slack / delay
		if slk > slack {
			slk = slack
		}
		speed := d.SpeedForTime(wcet, wcet+slk)
		if speed < 1 {
			s.Speed[t] = speed
			dag.refreshExec(t)
			res.Stretched++
		}
	}
	res.ExpectedEnergy = s.ExpectedEnergy()
	res.WorstDelay = dag.longest(legacyRunInto(dag, newDPResult(n), nil))
	return res
}

// TestWorstCaseMatchesLegacy checks WorstCase bit for bit against the
// legacy whole-graph loop, on a continuous and a discrete DVFS model.
func TestWorstCaseMatchesLegacy(t *testing.T) {
	for _, factor := range []float64{1.2, 1.6, 2.5} {
		for _, c := range oracleCases(t, factor) {
			for _, d := range []platform.DVFS{platform.Continuous(), platform.Discrete(0.4, 0.6, 0.8, 1)} {
				ref := c.s.Clone()
				want := legacyWorstCase(ref, d)
				got := c.s.Clone()
				res, err := WorstCase(got, d)
				if err != nil {
					t.Fatal(err)
				}
				sameStretch(t, fmt.Sprintf("%s factor %v WorstCase", c.name, factor), ref, got, want, res)
			}
		}
	}
}
