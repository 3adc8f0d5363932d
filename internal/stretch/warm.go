package stretch

import (
	"fmt"

	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// This file is the partial-recompute half of incremental (warm-start)
// rescheduling. When a probability drift is confined to a few forks, the
// mapping stage reuses the incumbent schedule skeleton (sched.WarmState) and
// only the speed assignment of the *affected* tasks is recomputed here. The
// unaffected tasks keep their incumbent speeds and are treated as locked
// from the outset — exactly the state the full heuristic reaches after
// processing them — so the partial pass costs O(|affected| × minterms × DP)
// instead of O(tasks × minterms × DP), where each DP runs on one task's cone
// and minterms sharing a cone restriction share one DP (see calculateSlack).
//
// Deadline safety is unconditional: the incumbent kept every chain within
// the deadline, resetting the affected tasks to full speed only shortens
// chains, and every per-task step re-applies the Figure 2 step-9 clamp. What
// the partial pass approximates (relative to a full recompute at the new
// probabilities) is optimality, not validity — the unaffected tasks' speeds
// still reflect the old weighting. The adaptive manager bounds that
// approximation with its affected-fraction eligibility rule and pins it with
// the warm-equivalence property test.

// retarget points the bound DAG at another schedule sharing the same mapping
// (a warm-start buffer copy): topology, order and communication delays are
// identical, only the speed-dependent execution times need a refresh.
func (w *Workspace) retarget(s *sched.Schedule) {
	w.dag.s = s
	for t := range w.dag.exec {
		w.dag.exec[t] = s.ExecTime(ctg.TaskID(t))
	}
}

// HeuristicPartial re-runs the Figure 2 stretching pass over only the
// affected tasks of a warm-started schedule: affected tasks are reset to
// full speed and re-stretched in DLS order under the current (drifted)
// probabilities, while every other task keeps its incumbent speed and
// counts as locked. The schedule's Speed vector is updated in place.
//
// The workspace must have been Rebind-ed to a schedule with the same
// mapping (s itself, or the incumbent s was copied from). The pass runs the
// same task loop as the full entry points; the only difference is the
// starting state — the partial pass resets affected tasks to speed 1, while
// Heuristic and HeuristicGuarded start from the schedule's current speeds.
// On an unstretched schedule, affected all-true therefore reproduces
// HeuristicGuarded bit for bit by construction, at workspace-reuse cost:
// this is how the adaptive manager stretches a fresh mapping and how the
// breaker's guard-level changes re-stretch without paying for a new one.
//
// Unlike the full heuristic, the partial pass leaves Result.ExpectedEnergy
// zero: the expected-energy evaluation allocates per cross-PE edge and the
// warm path is the allocation-free hot path. Callers that want it (e.g. for
// telemetry) call s.ExpectedEnergy() themselves.
func HeuristicPartial(s *sched.Schedule, d platform.DVFS, guard float64, affected []bool, w *Workspace) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if err := ValidateGuard(guard); err != nil {
		return Result{}, err
	}
	n := s.G.NumTasks()
	if len(affected) != n {
		return Result{}, fmt.Errorf("stretch: affected mask sized %d, want %d", len(affected), n)
	}
	if w == nil {
		w = NewWorkspace()
	}
	if w.dag == nil {
		w.Rebind(s)
	}
	w.retarget(s)
	for t := 0; t < n; t++ {
		if affected[t] && s.Speed[t] != 1 {
			s.Speed[t] = 1
			w.dag.refreshExec(ctg.TaskID(t))
		}
		w.locked[t] = !affected[t]
	}
	return w.stretch(s, d, guard, false)
}
