package stretch

import (
	"fmt"
	"testing"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/apps/wlan"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
)

// referenceHeuristic is a self-contained Figure 2 task loop that shares no
// state handling with Workspace: a fresh DAG model and lock vector, every
// task in DLS order, starting from the schedule's current speeds. It is the
// differential oracle every single-speed entry point must match bit for
// bit, and the one a faster slack computation must keep matching.
func referenceHeuristic(s *sched.Schedule, d platform.DVFS, literalRatio bool, guard float64) *Result {
	dag := newDAG(s)
	locked := make([]bool, s.G.NumTasks())
	scratch := newSlackScratch(s.G.NumTasks())
	res := &Result{}
	for _, t := range s.Order {
		slk := calculateSlack(dag, t, locked, literalRatio, scratch)
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
	res.ExpectedEnergy = s.ExpectedEnergy()
	res.WorstDelay = dag.longest(dag.run(nil))
	return res
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
	type workload struct {
		name  string
		build func() (*ctg.Graph, *platform.Platform, error)
	}
	workloads := []workload{
		{"mpeg", mpeg.Build},
		{"wlan", wlan.Build},
		{"cruise", cruise.Build},
	}
	d := platform.Continuous()
	for _, factor := range []float64{1.2, 1.6, 2.5} {
		type oracleCase struct {
			name string
			s    *sched.Schedule
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
