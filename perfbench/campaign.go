package main

import (
	_ "embed"
	"fmt"
	"math"
	"time"

	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/exp"
	"ctgdvfs/internal/par"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/trace"
)

// campaign-table2: the paper's Figure 5 / Table 2 campaign, exp.MPEG(), at
// the default worker bound, then a replica of its per-clip loop (profile →
// core.BuildOnline → core.RunStatic → two adaptive managers) fanned out the
// same way, which times each clip. Its inputs are the paper's eight fixed
// clips, so the seed does not apply.

// table2Golden is exp.MPEG().Render() at the commit that added the
// benchmark; the campaign is deterministic at every worker bound.
//
//go:embed table2.golden
var table2Golden string

const (
	campaignSetups     = 5
	campaignRecomputes = 40
	clipVectors        = 2000 // per clip: 1000 to profile, 1000 measured
)

// clipInput is one clip's profiled graph and measured vectors.
type clipInput struct {
	name string
	g    *ctg.Graph // deadline-tightened, probabilities set to the profile
	test [][]int
}

// campaignInputs builds what exp.MPEG builds before its per-clip runs.
func campaignInputs() (*platform.Platform, []clipInput, error) {
	g0, p, err := mpeg.Build()
	if err != nil {
		return nil, nil, err
	}
	g, err := core.TightenDeadline(g0, p, exp.DeadlineFactor)
	if err != nil {
		return nil, nil, err
	}
	var clips []clipInput
	for _, clip := range trace.MovieClips() {
		vec := clip.Generate(g, clipVectors)
		train, test := vec[:clipVectors/2], vec[clipVectors/2:]
		gp := g.Clone()
		if err := trace.ApplyProfile(gp, trace.AverageProbs(g, train)); err != nil {
			return nil, nil, err
		}
		clips = append(clips, clipInput{clip.Name, gp, test})
	}
	return p, clips, nil
}

// clipRun is one replica clip's row and the counters a traced run reports.
type clipRun struct {
	row     exp.MovieRow
	wall    time.Duration
	static  time.Duration // BuildOnline + RunStatic
	steps   stepTimes
	calls   int
	hits    int
	lookups int
}

// runClip replays one clip the way exp.MPEG does and times it. Traced, the
// clip is an exp.clip span and every call into core a span under it.
func runClip(p *platform.Platform, c clipInput, tr *tracer, parent int) (clipRun, error) {
	t0 := time.Now()
	id := tr.begin("exp.clip", parent, c.name)
	r, err := clipBody(p, c, tr, id, t0)
	tr.end(id)
	r.wall = time.Since(t0)
	return r, err
}

func clipBody(p *platform.Platform, c clipInput, tr *tracer, clipID int, t0 time.Time) (clipRun, error) {
	var r clipRun
	id := tr.begin("core.BuildOnline", clipID, c.name)
	static, err := core.BuildOnline(c.g, p, core.Options{})
	tr.end(id)
	if err != nil {
		return r, err
	}
	id = tr.begin("core.RunStatic", clipID, c.name)
	online, err := core.RunStatic(static, c.test)
	tr.end(id)
	if err != nil {
		return r, err
	}
	r.static = time.Since(t0)
	r.row = exp.MovieRow{Movie: c.name, Online: 100}
	for _, th := range []float64{0.5, 0.1} {
		id = tr.begin("core.New", clipID, c.name)
		m, err := core.New(c.g, p, core.Options{Window: 20, Threshold: th, DVFS: platform.Continuous()})
		tr.end(id)
		if err != nil {
			return r, err
		}
		var st core.RunStats
		if tr == nil {
			if st, err = m.Run(c.test); err != nil {
				return r, err
			}
		} else {
			// Step by step, so each Step is a span; the sum below mirrors
			// core.Manager.Run's average-energy accumulation.
			var total float64
			for i, v := range c.test {
				id := tr.begin("core.Step", clipID, fmt.Sprintf("%s/T%.1f/%d", c.name, th, i))
				res, err := m.Step(v)
				d := tr.end(id)
				if err != nil {
					return r, err
				}
				r.steps.add(d, res.Rescheduled)
				total += res.Instance.Energy
			}
			cs := m.CacheStats()
			st = core.RunStats{AvgEnergy: total / float64(len(c.test)), Calls: m.Calls(), CacheHits: cs.Hits}
			r.lookups += cs.Hits + cs.Misses
		}
		r.calls += st.Calls
		r.hits += st.CacheHits
		norm := 100 * st.AvgEnergy / online.AvgEnergy
		if th == 0.5 {
			r.row.AdaptiveT05, r.row.CallsT05, r.row.HitsT05 = norm, st.Calls, st.CacheHits
		} else {
			r.row.AdaptiveT01, r.row.CallsT01, r.row.HitsT01 = norm, st.Calls, st.CacheHits
		}
	}
	return r, nil
}

func sameRow(a, b exp.MovieRow) bool {
	return a.Movie == b.Movie && a.CallsT05 == b.CallsT05 && a.CallsT01 == b.CallsT01 &&
		a.HitsT05 == b.HitsT05 && a.HitsT01 == b.HitsT01 &&
		math.Float64bits(a.Online) == math.Float64bits(b.Online) &&
		math.Float64bits(a.AdaptiveT05) == math.Float64bits(b.AdaptiveT05) &&
		math.Float64bits(a.AdaptiveT01) == math.Float64bits(b.AdaptiveT01)
}

// timedMPEG runs exp.MPEG once and checks its rendering against the golden
// text.
func timedMPEG(out *outcome, label string) (*exp.MPEGResult, time.Duration, error) {
	t0 := time.Now()
	res, err := exp.MPEG()
	el := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	out.check(res.Render() == table2Golden, "%s: exp.MPEG rendering differs from table2.golden", label)
	return res, el, nil
}

func runCampaign(cfg config, out *outcome, e2e, layers *metrics, tr *tracer) error {
	var setups []float64
	var p *platform.Platform
	var clips []clipInput
	for k := 0; k < campaignSetups; k++ {
		t0 := time.Now()
		var err error
		if p, clips, err = campaignInputs(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var alloc allocMeter
	alloc.begin()
	res, campaign, err := timedMPEG(out, "campaign")
	alloc.end()
	if err != nil {
		return err
	}

	alloc.begin()
	parID := tr.begin("par.MapErr", 0, "replica")
	runs, err := par.MapErr(len(clips), func(i int) (clipRun, error) { return runClip(p, clips[i], tr, parID) })
	tr.end(parID)
	alloc.end()
	if err != nil {
		return err
	}
	var clipMs, staticMs []float64
	for i, r := range runs {
		out.check(sameRow(r.row, res.Rows[i]), "replica clip %s differs from exp.MPEG's row", r.row.Movie)
		clipMs = append(clipMs, ms(r.wall))
		staticMs = append(staticMs, ms(r.static))
	}

	e2e.set("setup_s", quantile(setups, 0.5), "s")
	e2e.set("alloc_mb", alloc.mb(), "MB")
	e2e.set("p50_ms", quantile(clipMs, 0.5), "ms")
	e2e.set("info.slowest_clip_ms", maxOf(clipMs), "ms")
	e2e.set("long_s", campaign.Seconds(), "s")
	if tr == nil {
		return nil
	}

	var st stepTimes
	var calls, hits, lookups int
	for _, r := range runs {
		st.all = append(st.all, r.steps.all...)
		st.resched = append(st.resched, r.steps.resched...)
		calls, hits, lookups = calls+r.calls, hits+r.hits, lookups+r.lookups
	}
	st.report(layers)
	layers.set("core.reschedules", float64(calls), "count")
	layers.set("core.cache_hit_ratio", float64(hits)/float64(lookups), "ratio")
	layers.set("core.cache_lookups", float64(lookups), "count")
	layers.set("exp.clip_max_s", maxOf(clipMs)/1e3, "s")
	layers.set("exp.clip_mean_s", mean(clipMs)/1e3, "s")
	layers.set("exp.static_ms", mean(staticMs), "ms")

	// The single-threaded baseline: the same campaign at one worker.
	workers := min(par.Limit(), len(clips))
	prev := par.SetLimit(1)
	_, serial, err := timedMPEG(out, "serial campaign")
	par.SetLimit(prev)
	if err != nil {
		return err
	}
	speedup := serial.Seconds() / campaign.Seconds()
	layers.set("par.serial_s", serial.Seconds(), "s")
	layers.set("par.workers", float64(workers), "count")
	layers.set("par.speedup", speedup, "x")
	layers.set("par.efficiency", speedup/float64(workers), "ratio")

	return campaignProbes(p, clips[0], out, layers, tr)
}

// campaignProbes steps the first clip's T=0.1 manager again, probing the
// layers below core after each Step: a replay of every instance and an
// external recompute after each reschedule, up to campaignRecomputes.
func campaignProbes(p *platform.Platform, c clipInput, out *outcome, layers *metrics, tr *tracer) error {
	opts := core.Options{Window: 20, Threshold: 0.1, DVFS: platform.Continuous()}
	m, err := core.New(c.g, p, opts)
	if err != nil {
		return err
	}
	pb := &probes{tr: tr, maxRecomputes: campaignRecomputes}
	for i, v := range c.test {
		req := fmt.Sprintf("%s/probe/%d", c.name, i)
		res, err := m.Step(v)
		if err != nil {
			return err
		}
		if err := pb.replayStep(m, res.Instance.Scenario, req); err != nil {
			return err
		}
		if res.Rescheduled {
			if err := pb.recompute(c.g, p, opts.DVFS, m, req); err != nil {
				return err
			}
		}
	}
	pb.report(layers)
	if pb.matched != pb.compared {
		out.check(false, "external recompute matched %d of %d schedules", pb.matched, pb.compared)
	}
	return nil
}
