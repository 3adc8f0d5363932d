package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/sim"
	"ctgdvfs/internal/stretch"
)

// probes times the public entry points of the layers below core from
// outside: after a manager step it re-derives the manager's schedule with
// ctg.Analyze → sched.DLS → stretch.HeuristicGuarded → Schedule.Validate at
// the manager's current branch probabilities, checks the result bit for bit
// against Manager.Schedule(), and replays the step's scenario with
// sim.ReplayCfg. Only traced runs use it.
type probes struct {
	tr *tracer
	// maxRecomputes bounds the external recomputes per run (each costs as
	// much as the reschedule it mirrors).
	maxRecomputes int

	analyze, dls, heuristic, validate, replay []time.Duration
	scenarios                                 int // most scenarios of a recomputed analysis
	compared, matched                         int
}

// recompute rebuilds the schedule the manager adopted at its last
// reschedule. g0 is the graph the manager was built from and dvfs its speed
// model; the manager must run at guard level 0 with the default sched
// options and MaxPaths.
func (pb *probes) recompute(g0 *ctg.Graph, p *platform.Platform, dvfs platform.DVFS, m *core.Manager, req string) error {
	if pb.compared >= pb.maxRecomputes {
		return nil
	}
	g := g0.Clone()
	for fi, fork := range g.Forks() {
		if err := g.SetBranchProbs(fork, m.Probs(fi)); err != nil {
			return err
		}
	}
	id := pb.tr.begin("ctg.Analyze", 0, req)
	a, err := ctg.Analyze(g)
	pb.analyze = append(pb.analyze, pb.tr.end(id))
	if err != nil {
		return err
	}
	pb.scenarios = max(pb.scenarios, a.NumScenarios())
	id = pb.tr.begin("sched.DLS", 0, req)
	s, err := sched.DLS(a, p, sched.Modified())
	pb.dls = append(pb.dls, pb.tr.end(id))
	if err != nil {
		return err
	}
	id = pb.tr.begin("stretch.HeuristicGuarded", 0, req)
	_, err = stretch.HeuristicGuarded(s, dvfs, 0, m.GuardBand())
	pb.heuristic = append(pb.heuristic, pb.tr.end(id))
	if err != nil {
		return err
	}
	id = pb.tr.begin("sched.Validate", 0, req)
	err = s.Validate()
	pb.validate = append(pb.validate, pb.tr.end(id))
	if err != nil {
		return fmt.Errorf("recomputed schedule invalid: %w", err)
	}
	pb.compared++
	if sameSchedule(s, m.Schedule()) {
		pb.matched++
	}
	return nil
}

// replayStep replays scenario on the manager's incumbent schedule.
func (pb *probes) replayStep(m *core.Manager, scenario int, req string) error {
	var cfg sim.Config
	if sp := m.ScenarioSpeeds(); sp != nil {
		cfg.ScenarioSpeeds = sp.Speeds
	}
	id := pb.tr.begin("sim.ReplayCfg", 0, req)
	_, err := sim.ReplayCfg(m.Schedule(), scenario, cfg)
	pb.replay = append(pb.replay, pb.tr.end(id))
	return err
}

// report sets the ctg/sched/stretch/sim metrics and the recompute count.
func (pb *probes) report(ms *metrics) {
	dls := usQuantile(pb.dls, 0.5) / 1e3
	heur := usQuantile(pb.heuristic, 0.5) / 1e3
	ms.set("ctg.analyze_us", usQuantile(pb.analyze, 0.5), "us")
	ms.set("ctg.scenarios", float64(pb.scenarios), "count")
	ms.set("sched.dls_ms", dls, "ms")
	ms.set("sched.validate_us", usQuantile(pb.validate, 0.5), "us")
	ms.set("stretch.heuristic_ms", heur, "ms")
	share := 0.0
	if dls+heur > 0 {
		share = heur / (dls + heur)
	}
	ms.set("stretch.share", share, "ratio")
	ms.set("sim.replay_p50_us", usQuantile(pb.replay, 0.5), "us")
	ms.set("sim.replays", float64(len(pb.replay)), "count")
	ms.set("core.recompute_match", float64(pb.matched), "count")
	ms.set("core.recompute_compared", float64(pb.compared), "count")
}

// sameSchedule reports whether two schedules agree bit for bit on mapping,
// order, nominal timing and speeds.
func sameSchedule(a, b *sched.Schedule) bool {
	return slices.Equal(a.PE, b.PE) && slices.Equal(a.Order, b.Order) &&
		sameBits(a.Start, b.Start) && sameBits(a.Speed, b.Speed) &&
		sameBits(a.CommStart, b.CommStart) &&
		math.Float64bits(a.Makespan) == math.Float64bits(b.Makespan)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// stepTimes collects per-step latencies of a core.Manager, split by whether
// the step rescheduled.
type stepTimes struct {
	all, resched []time.Duration
}

func (st *stepTimes) add(d time.Duration, rescheduled bool) {
	st.all = append(st.all, d)
	if rescheduled {
		st.resched = append(st.resched, d)
	}
}

func (st *stepTimes) report(ms *metrics) {
	ms.set("core.step_p50_us", usQuantile(st.all, 0.5), "us")
	ms.set("core.step_resched_p50_us", usQuantile(st.resched, 0.5), "us")
	ms.set("core.step_resched_p99_us", usQuantile(st.resched, 0.99), "us")
}
