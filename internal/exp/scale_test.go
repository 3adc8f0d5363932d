package exp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
)

// TestScaleWorkloadShape checks the generator's structural invariants on a
// small instance: task count near target, requested scenario count, a valid
// buildable analysis, and non-empty conditional arms (split activation).
func TestScaleWorkloadShape(t *testing.T) {
	g, p, err := ScaleWorkload(ScaleConfig{Tasks: 200, PEs: 8, Forks: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPEs() != 8 {
		t.Fatalf("PEs = %d, want 8", p.NumPEs())
	}
	if g.NumForks() != 3 {
		t.Fatalf("forks = %d, want 3", g.NumForks())
	}
	if n := g.NumTasks(); n < 150 || n > 220 {
		t.Fatalf("tasks = %d, want ~200", n)
	}
}

// TestScaleCampaignSmoke runs a miniature campaign cell end to end and
// checks the warm run's behavioral envelope against the full run.
func TestScaleCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke is seconds-scale")
	}
	r, err := ScaleCampaign([]ScaleConfig{{Tasks: 300, PEs: 8, Forks: 3, Seed: 3}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Cells[0]
	if c.WarmStarts == 0 {
		t.Fatalf("warm run never warm-started: %+v", c)
	}
	if c.MissesWarm > c.MissesFull {
		t.Fatalf("warm run misses %d > full run misses %d", c.MissesWarm, c.MissesFull)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

// TestScaleStretchDigest pins the single-speed stretch of the 10³-task
// ladder: the FNV-1a digest of every speed bit HeuristicGuarded assigns on
// ScaleWorkload (deadline tightened at 2.0), followed by the bits of the
// result's slack accounting and worst delay. The stretch package cannot
// import this one, so this is where the ladder shape is pinned; the digests
// were recorded on the whole-graph slack DP that predates the
// cone-restricted one.
func TestScaleStretchDigest(t *testing.T) {
	cases := []struct {
		cfg   ScaleConfig
		guard float64
		want  uint64
	}{
		{ScaleConfig{Tasks: 1000, PEs: 16, Forks: 5, Seed: 1}, 0, 0xab1652a560f563c0},
		{ScaleConfig{Tasks: 1000, PEs: 16, Forks: 5, Seed: 2}, 0, 0x6e3de82fa7a9181b},
		{ScaleConfig{Tasks: 1000, PEs: 16, Forks: 5, Seed: 3}, 0, 0x2aa3d5f83c350947},
		{ScaleConfig{Tasks: 200, PEs: 8, Forks: 3, Seed: 7}, 0.2, 0xd32d7b056a3b66ed},
	}
	for _, c := range cases {
		g0, p, err := ScaleWorkload(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.TightenDeadline(g0, p, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ctg.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.DLS(a, p, sched.Modified())
		if err != nil {
			t.Fatal(err)
		}
		res, err := stretch.HeuristicGuarded(s, platform.Continuous(), 0, c.guard)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		word := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		for _, v := range s.Speed {
			word(v)
		}
		word(res.SlackFound)
		word(res.SlackUsed)
		word(res.WorstDelay)
		if got := h.Sum64(); got != c.want {
			t.Errorf("%+v guard %v: stretch digest %#x, want %#x (%d stretched)", c.cfg, c.guard, got, c.want, res.Stretched)
		}
	}
}
