package stretch

import (
	"testing"

	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// TestPartialAllAffectedMatchesGuarded pins the documented contract of
// HeuristicPartial: with an all-true affected mask it reproduces
// HeuristicGuarded bit for bit — same per-task speeds, same slack
// accounting, same worst-case delay — across random CTGs, deadline
// tightness and guard levels.
func TestPartialAllAffectedMatchesGuarded(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, factor := range []float64{1.2, 1.6, 2.5} {
			for _, guard := range []float64{0, 0.2} {
				ref := prepare(t, seed, factor)
				got := ref.Clone()

				want, err := HeuristicGuarded(ref, platform.Continuous(), 0, guard)
				if err != nil {
					t.Fatal(err)
				}
				ws := NewWorkspace()
				ws.Rebind(got)
				res, err := HeuristicPartial(got, platform.Continuous(), guard, allTasks(got), ws)
				if err != nil {
					t.Fatal(err)
				}

				for task := range ref.Speed {
					if ref.Speed[task] != got.Speed[task] {
						t.Fatalf("seed %d factor %v guard %v: task %d speed %v (guarded) != %v (partial)",
							seed, factor, guard, task, ref.Speed[task], got.Speed[task])
					}
				}
				if res.Stretched != want.Stretched || res.SlackFound != want.SlackFound ||
					res.SlackUsed != want.SlackUsed || res.WorstDelay != want.WorstDelay {
					t.Fatalf("seed %d factor %v guard %v: partial result %+v != guarded %+v",
						seed, factor, guard, res, *want)
				}
				// Partial leaves ExpectedEnergy to the caller; the schedules
				// themselves must agree.
				if e1, e2 := ref.ExpectedEnergy(), got.ExpectedEnergy(); e1 != e2 {
					t.Fatalf("seed %d factor %v guard %v: energy %v != %v", seed, factor, guard, e1, e2)
				}
			}
		}
	}
}

// allTasks returns an all-true affected mask for s.
func allTasks(s *sched.Schedule) []bool {
	affected := make([]bool, s.G.NumTasks())
	for i := range affected {
		affected[i] = true
	}
	return affected
}

// TestPartialSubsetKeepsDeadline checks deadline safety of genuinely partial
// re-stretches: whatever subset of tasks is re-stretched (the rest keeping
// incumbent speeds), the worst-case delay stays within the deadline.
func TestPartialSubsetKeepsDeadline(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := prepare(t, seed, 1.6)
		if _, err := HeuristicGuarded(s, platform.Continuous(), 0, 0); err != nil {
			t.Fatal(err)
		}
		warm := sched.NewWarmState()
		ws := NewWorkspace()
		n := s.G.NumTasks()
		// Re-stretch sliding windows of tasks: prefixes, suffixes, stripes.
		masks := [][]bool{make([]bool, n), make([]bool, n), make([]bool, n)}
		for i := 0; i < n; i++ {
			masks[0][i] = i < n/2
			masks[1][i] = i >= n/2
			masks[2][i] = i%3 == 0
		}
		for mi, affected := range masks {
			target := warm.Start(s)
			ws.Rebind(target)
			res, err := HeuristicPartial(target, platform.Continuous(), 0, affected, ws)
			if err != nil {
				t.Fatal(err)
			}
			if res.WorstDelay > target.G.Deadline()*(1+1e-9) {
				t.Fatalf("seed %d mask %d: partial re-stretch delay %v exceeds deadline %v",
					seed, mi, res.WorstDelay, target.G.Deadline())
			}
			if err := target.QuickValidate(); err != nil {
				t.Fatalf("seed %d mask %d: warm schedule invalid: %v", seed, mi, err)
			}
			// Unaffected tasks keep their incumbent speeds untouched.
			for task := range affected {
				if !affected[task] && target.Speed[task] != s.Speed[task] {
					t.Fatalf("seed %d mask %d: unaffected task %d speed changed %v -> %v",
						seed, mi, task, s.Speed[task], target.Speed[task])
				}
			}
		}
	}
}
