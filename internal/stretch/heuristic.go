package stretch

import (
	"fmt"
	"math"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// Result summarizes a stretching pass.
type Result struct {
	// Stretched counts tasks whose speed dropped below 1.
	Stretched int
	// ExpectedEnergy is the schedule's expected energy after stretching.
	ExpectedEnergy float64
	// WorstDelay is the largest chain delay after stretching; it never
	// exceeds the deadline when the nominal schedule was feasible.
	WorstDelay float64
	// SlackFound sums the positive per-task slack CalculateSlack
	// distributed (time units); SlackUsed sums the execution-time increase
	// actually converted into speed reduction — under a guard band (or a
	// discrete DVFS model snapping to a level) it is below SlackFound, the
	// difference being the margin reserved for overruns. Populated by the
	// heuristic stretchers; the worst-case and NLP baselines leave both
	// zero.
	SlackFound, SlackUsed float64
}

// Heuristic runs the paper's online task-stretching heuristic (Figure 2) on
// the schedule, assigning one DVFS speed per task in the DLS task order. The
// schedule's Speed vector is updated in place.
//
// For each task τ (processed in scheduling order and then locked):
//
//	slk1 — for every leaf minterm m ∈ Γ(τ), find among the chains of m
//	       through τ whose suffix still carries branch uncertainty
//	       (prob(p, τ) ≠ 1) the critical one — the largest delay, i.e. the
//	       lowest distributable slack ratio slk(p)/delay(p) — and accumulate
//	       prob(p_worst, τ)·wcet(τ)·ratio·prob(τ). A chain that is critical
//	       for several minterms is counted once (the weights prob(p, τ)
//	       then approximate a distribution over the downstream branch
//	       combinations).
//	slk2 — among the chains through τ with no remaining downstream
//	       uncertainty (prob(p, τ) = 1), take the critical ratio:
//	       wcet(τ)·ratio·prob(τ).
//	slk(τ) = min of the two (each only when applicable), clamped so that no
//	       chain through τ would exceed the deadline (step 9).
//
// The task is stretched by its slack, its speed locked, and the delays every
// later decision sees reflect it (the paper's "update the delay and slack of
// all paths spanning τi").
//
// Interpretation note: the paper's Figure 2 step 5 reads "paths of m where
// prob(m) = 1"; we read it as prob(p, τ) = 1 so that the two buckets
// partition the spanning paths. Under the literal reading, a task living
// only on conditional arms (e.g. τ4 of the paper's own Figure 1) would never
// receive slack, contradicting the stated goal of giving more slack to
// likely tasks; under this reading the worked examples of §III.A hold.
func Heuristic(s *sched.Schedule, d platform.DVFS) (*Result, error) {
	return heuristicFull(s, d, 0, false)
}

// HeuristicGuarded is Heuristic with a guard band: a fraction guard ∈ [0, 1]
// of every task's distributed slack is reserved as margin instead of being
// converted into speed reduction (platform.GuardedSpeedForTime), so the
// stretched schedule tolerates bounded execution-time overruns by
// construction at the cost of higher energy. guard = 0 is exactly Heuristic;
// guard = 1 leaves every task at full speed. maxPaths is ignored — the DP
// model needs no path cap — and stays only for existing callers.
func HeuristicGuarded(s *sched.Schedule, d platform.DVFS, maxPaths int, guard float64) (*Result, error) {
	if err := ValidateGuard(guard); err != nil {
		return nil, err
	}
	return heuristicFull(s, d, guard, false)
}

// ValidateGuard checks a guard-band fraction: it must lie in [0, 1] (NaN is
// rejected).
func ValidateGuard(guard float64) error {
	if math.IsNaN(guard) || guard < 0 || guard > 1 {
		return fmt.Errorf("stretch: guard band must be in [0,1], got %v", guard)
	}
	return nil
}

// HeuristicVariant exposes the ablation knob between the two readings of
// Figure 2's ratio denominator: released-tasks (literalRatio=false, the
// default — locked tasks leave the distributable delay, reaching uniform
// scaling on chains) and the literal slk(p)/delay(p) (literalRatio=true —
// shares shrink geometrically along a path, leaving slack unused). See the
// ablation benchmarks for the measured difference.
func HeuristicVariant(s *sched.Schedule, d platform.DVFS, literalRatio bool) (*Result, error) {
	return heuristicFull(s, d, 0, literalRatio)
}

// heuristicFull is the full-schedule pass behind Heuristic, HeuristicGuarded
// and HeuristicVariant: a fresh workspace with nothing locked, starting from
// the schedule's current speeds.
func heuristicFull(s *sched.Schedule, d platform.DVFS, guard float64, literalRatio bool) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	w := NewWorkspace()
	w.Rebind(s)
	res, err := w.stretch(s, d, guard, literalRatio)
	if err != nil {
		return nil, err
	}
	res.ExpectedEnergy = s.ExpectedEnergy()
	return &res, nil
}

// Workspace holds the reusable buffers of repeated stretching passes over
// one mapping: the combined-DAG model, the lock vector and the slack DP
// scratch. Rebind it after every full reschedule (new mapping), then each
// HeuristicPartial call on that mapping allocates nothing. Not safe for
// concurrent use.
type Workspace struct {
	// Cancel, when non-nil, is polled once per task the pass stretches; a
	// non-nil return aborts the pass with that error. See CancelFunc.
	Cancel CancelFunc

	dag     *dagModel
	locked  []bool
	scratch *slackScratch
}

// NewWorkspace returns an empty stretch workspace; Rebind must be called
// before the first HeuristicPartial.
func NewWorkspace() *Workspace { return &Workspace{} }

// Rebind rebuilds the workspace's DAG topology from a schedule — required
// whenever the mapping changed (a full DLS ran or a cached schedule with a
// different mapping was adopted).
func (w *Workspace) Rebind(s *sched.Schedule) {
	if w.dag == nil {
		w.dag = new(dagModel)
	}
	w.dag.bind(s)
	n := s.G.NumTasks()
	w.locked = resize(w.locked, n)
	if w.scratch == nil || len(w.scratch.full.up) != n || len(w.scratch.inKey) != s.G.NumForks() {
		w.scratch = newSlackScratch(n, s.G.NumForks())
	}
}

// stretch is the Figure 2 task loop: every task not yet locked, in DLS
// order, receives its CalculateSlack share, is stretched by it and locked.
// Cancel is polled once per such task. The workspace must be bound to s.
// ExpectedEnergy is left to the caller.
func (w *Workspace) stretch(s *sched.Schedule, d platform.DVFS, guard float64, literalRatio bool) (Result, error) {
	dag := w.dag
	var res Result
	for _, t := range s.Order {
		if w.locked[t] {
			continue
		}
		if w.Cancel != nil {
			if err := w.Cancel(); err != nil {
				return Result{}, err
			}
		}
		slk := calculateSlack(dag, t, w.locked, literalRatio, w.scratch)
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
		// "Stretch τi, lock its schedule and speed": processed tasks leave
		// the distributable portion of every path they span.
		w.locked[t] = true
	}
	res.WorstDelay = dag.longest(dag.runInto(w.scratch.full, nil))
	return res, nil
}

// slackScratch holds the buffers calculateSlack reuses across the O(tasks ×
// minterms) inner loop: the task's cone, the full-graph and per-minterm DP
// decompositions, the critical-path dedup set and the minterm-restriction
// set. One per Heuristic call (or per worker when minterm loops run in
// parallel).
type slackScratch struct {
	cone          cone
	full, minterm *dpResult
	seen          pathSet
	// keyForks lists the forks guarding an edge the cone's DP tests, and
	// inKey marks them; keys interns the minterms' assignments restricted to
	// keyForks.
	keyForks []int32
	inKey    []bool
	keys     pathSet
	// mintermDPs and nodes count the per-minterm DPs run and the nodes all
	// DPs visited (both passes): deterministic work measures for tests.
	mintermDPs, nodes int
}

func newSlackScratch(n, forks int) *slackScratch {
	return &slackScratch{
		cone:     newCone(n),
		full:     newDPResult(n),
		minterm:  newDPResult(n),
		keyForks: make([]int32, 0, forks),
		inKey:    make([]bool, forks),
	}
}

// collectKeyForks sets keyForks to the forks whose outcome decides an edge
// the cone's DP tests: the in-edges of the ancestors and the out-edges of
// the descendants.
func (sc *slackScratch) collectKeyForks(d *dagModel) {
	sc.keyForks = sc.keyForks[:0]
	note := func(ei int) {
		if f := d.guard[ei].fork; f >= 0 && !sc.inKey[f] {
			sc.inKey[f] = true
			sc.keyForks = append(sc.keyForks, f)
		}
	}
	for _, v := range sc.cone.anc {
		for _, ei := range d.inE[v] {
			note(ei)
		}
	}
	for _, v := range sc.cone.desc {
		for _, ei := range d.outE[v] {
			note(ei)
		}
	}
	for _, f := range sc.keyForks {
		sc.inKey[f] = false
	}
}

// firstOfRestriction reports whether no earlier minterm of this task's pass
// had the same assignment on keyForks.
func (sc *slackScratch) firstOfRestriction(assign []int) bool {
	key := sc.keys.buf[:0]
	for _, f := range sc.keyForks {
		key = append(key, int32(assign[f]))
	}
	sc.keys.buf = key
	return sc.keys.add(key)
}

// calculateSlack implements the CalculateSlack(τ) routine of Figure 2 on the
// current delays. The distributable slack ratio of a critical chain is its
// slack over the execution time of its *unlocked* tasks (plus communication)
// — already-stretched tasks are "released from consideration" (§III.A), so
// on a simple chain with a loose deadline the heuristic converges to the
// energy-optimal uniform scaling instead of geometrically shrinking shares.
func calculateSlack(dag *dagModel, t ctg.TaskID, locked []bool, literalRatio bool, scratch *slackScratch) float64 {
	s := dag.s
	a := s.A
	deadline := s.G.Deadline()
	wcet := s.WCET(t)
	probT := a.ActivationProb(t)

	// Full-graph decomposition on τ's cone: slk2 and the step-9 clamp.
	c := &scratch.cone
	c.build(dag, t)
	visits := len(c.anc) + len(c.desc)
	full := dag.runCone(scratch.full, nil, c.anc, c.desc)
	scratch.nodes += visits

	// slk1: probability-weighted sum of per-minterm critical chain shares.
	// Minterms that agree on every fork the cone's DP tests produce the same
	// cone values and critical chain, so a repeat would either find no
	// uncertain chain or one already counted: only the first is run.
	slk1 := 0.0
	slk1Valid := false
	scratch.seen.reset()
	scratch.keys.reset()
	scratch.collectKeyForks(dag)
	gamma := a.ActivationSet(t)
	gamma.ForEach(func(si int) {
		sc := a.Scenario(si)
		if !scratch.firstOfRestriction(sc.Assign) {
			return
		}
		r := dag.runCone(scratch.minterm, sc.Assign, c.anc, c.desc)
		scratch.mintermDPs++
		scratch.nodes += visits
		if r.downC[t] == negInf {
			return // no chain with downstream uncertainty in this minterm
		}
		slk1Valid = true
		if !scratch.seen.addCritical(r, dag, t, 'C') {
			return // shared critical path: count once
		}
		delay := r.up[t] + dag.exec[t] + r.downC[t]
		denom := delay
		if !literalRatio {
			denom = r.criticalDenominator(dag, t, 'C', locked)
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
			denom = full.criticalDenominator(dag, t, 'U', locked)
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
