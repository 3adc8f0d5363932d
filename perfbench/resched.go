package main

import (
	"fmt"
	"math"
	"time"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/stretch"
)

// resched-1k: the 10³-task reschedule path. Two core.Managers step through
// the same fork-0 drift stream (exp.ScaleDriftVectors) at threshold 0 with
// the schedule cache off, so every Step reschedules: one with warm start off
// (each Step is a full DLS + Figure-2 stretch), one with warm start on (Steps
// take the incremental stretch.HeuristicPartial path, falling back to the
// full path when the warm result does not validate).

const (
	reschedSetups = 3
	reschedFull   = 6   // full-recompute Steps at 30 s
	reschedWarm   = 240 // warm-start Steps at 30 s
	// reschedEnergyTol is the largest relative difference in average energy
	// between the warm and the full run that still counts as correct.
	reschedEnergyTol = 0.01
)

func reschedWorkload(seed int64) (*ctg.Graph, *platform.Platform, error) {
	g0, p, err := exp.ScaleWorkload(exp.ScaleConfig{Tasks: 1000, PEs: 16, Forks: 5, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	g, err := core.TightenDeadline(g0, p, 2.0)
	return g, p, err
}

func reschedManager(g *ctg.Graph, p *platform.Platform, warm bool) (*core.Manager, error) {
	var opts core.Options
	opts.SetThreshold(0)
	opts.CacheSize = -1
	opts.WarmStart = warm
	return core.New(g, p, opts)
}

// stepRun is what one manager's timed Steps produced.
type stepRun struct {
	times  []time.Duration
	energy []float64
	misses []bool
}

func runResched(cfg config, out *outcome, e2e, layers *metrics, tr *tracer) error {
	nFull, nWarm := cfg.scale(reschedFull, 3), cfg.scale(reschedWarm, 40)

	// Set-up: generate and tighten the workload and build a manager (whose
	// initial schedule is one full reschedule), several times.
	var setups []float64
	var g *ctg.Graph
	var p *platform.Platform
	var managers []*core.Manager
	for k := 0; k < reschedSetups; k++ {
		t0 := time.Now()
		gk, pk, err := reschedWorkload(cfg.seed)
		if err != nil {
			return err
		}
		m, err := reschedManager(gk, pk, k == 1)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k == 0 {
			g, p = gk, pk
		}
		managers = append(managers, m)
	}
	full, warm := managers[0], managers[1]
	vecs := exp.ScaleDriftVectors(g, max(nFull, nWarm))

	// The two managers take turns, a block of warm Steps then one full
	// Step, so both sets of samples spread over the whole run and a spell
	// of load from the rest of the host does not land on one of them.
	var alloc allocMeter
	pb := &probes{tr: tr, maxRecomputes: nFull}
	var partial []time.Duration
	fullProbe := func(m *core.Manager, scenario int, req string) error {
		if err := pb.replayStep(m, scenario, req); err != nil {
			return err
		}
		return pb.recompute(g, p, platform.DVFS{}, m, req)
	}
	warmProbe := func(m *core.Manager, scenario int, req string) error {
		if err := pb.replayStep(m, scenario, req); err != nil {
			return err
		}
		d, err := partialProbe(m, tr, req)
		partial = append(partial, d)
		return err
	}
	var fullRun, warmRun stepRun
	block := (nWarm + nFull - 1) / nFull // nFull blocks cover all nWarm Steps
	for i := 0; i < nFull; i++ {
		lo, hi := min(i*block, nWarm), min((i+1)*block, nWarm)
		if err := stepManager(&warmRun, warm, vecs, lo, hi, "warm", &alloc, tr, warmProbe); err != nil {
			return err
		}
		if err := stepManager(&fullRun, full, vecs, i, i+1, "full", &alloc, tr, fullProbe); err != nil {
			return err
		}
	}

	// Output checks: warm-starting must not trade deadline misses or energy
	// for speed on the instances both managers ran.
	out.attempted += nFull + nWarm // every Step returned without error
	mf, mw := countTrue(fullRun.misses), countTrue(warmRun.misses[:nFull])
	out.check(mf == mw, "warm run missed %d deadlines in the first %d instances, full run %d", mw, nFull, mf)
	ef, ew := mean(fullRun.energy), mean(warmRun.energy[:nFull])
	out.check(math.Abs(ew-ef) <= reschedEnergyTol*ef, "warm average energy %.6g vs full %.6g (more than %.0f%% apart)", ew, ef, 100*reschedEnergyTol)

	fullMs := make([]float64, len(fullRun.times))
	for i, d := range fullRun.times {
		fullMs[i] = ms(d)
	}
	warmMs := make([]float64, len(warmRun.times))
	for i, d := range warmRun.times {
		warmMs[i] = ms(d)
	}
	e2e.set("setup_s", quantile(setups, 0.5), "s")
	e2e.set("alloc_mb", alloc.mb(), "MB")
	e2e.set("p50_ms", quantile(warmMs, 0.5), "ms")
	e2e.set("info.warm_p95_ms", quantile(warmMs, 0.95), "ms")
	e2e.set("long_s", quantile(fullMs, 0.5)/1e3, "s")
	if tr == nil {
		return nil
	}

	var st stepTimes
	for _, d := range warmRun.times {
		st.add(d, true) // threshold 0: every Step reschedules
	}
	st.report(layers)
	starts, fallbacks := warm.WarmStats()
	layers.set("core.warm_starts", float64(starts), "count")
	layers.set("core.warm_fallbacks", float64(fallbacks), "count")
	layers.set("core.reschedules", float64(warm.Calls()), "count")
	layers.set("stretch.partial_ms", usQuantile(partial, 0.5)/1e3, "ms")
	pb.report(layers)
	if pb.matched != pb.compared {
		out.check(false, "external recompute matched %d of %d schedules", pb.matched, pb.compared)
	}
	// How much of a full reschedule the timed entry points leave
	// unexplained: replay, estimator, bookkeeping and anything unmeasured.
	explained := usQuantile(pb.analyze, 0.5)/1e3 + usQuantile(pb.dls, 0.5)/1e3 +
		usQuantile(pb.heuristic, 0.5)/1e3 + usQuantile(pb.validate, 0.5)/1e3
	fullMed := quantile(fullMs, 0.5)
	layers.set("resched.unexplained_pct", 100*(fullMed-explained)/fullMed, "%")
	return nil
}

// stepManager times m's Steps on vecs[lo:hi], appending to run; a traced
// run calls probe after each Step, outside the timed and
// allocation-metered window.
func stepManager(run *stepRun, m *core.Manager, vecs [][]int, lo, hi int, name string, alloc *allocMeter, tr *tracer,
	probe func(m *core.Manager, scenario int, req string) error) error {
	for i := lo; i < hi; i++ {
		req := fmt.Sprintf("%s/%d", name, i)
		alloc.begin()
		id := tr.begin("core.Step", 0, req)
		t0 := time.Now()
		res, err := m.Step(vecs[i])
		el := time.Since(t0)
		tr.end(id)
		alloc.end()
		if err != nil {
			return fmt.Errorf("%s step %d: %w", name, i, err)
		}
		run.times = append(run.times, el)
		run.energy = append(run.energy, res.Instance.Energy)
		run.misses = append(run.misses, !res.Instance.DeadlineMet)
		if tr != nil {
			if err := probe(m, res.Instance.Scenario, req); err != nil {
				return err
			}
		}
	}
	return nil
}

// partialProbe times stretch.HeuristicPartial on a copy of the manager's
// incumbent schedule, with the affected set core.AffectedByDrift derives for
// a drift on fork 0 — the only fork exp.ScaleDriftVectors moves.
func partialProbe(m *core.Manager, tr *tracer, req string) (time.Duration, error) {
	s := m.Schedule().Clone()
	ws := stretch.NewWorkspace()
	ws.Rebind(s)
	affected := core.AffectedByDrift(s.A, []int{0})
	id := tr.begin("stretch.HeuristicPartial", 0, req)
	_, err := stretch.HeuristicPartial(s, platform.DVFS{}, m.GuardBand(), affected, ws)
	return tr.end(id), err
}

func countTrue(bs []bool) (n int) {
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
