package core

import (
	"math"
	"sort"
	"testing"

	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/power"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// fleetTenants builds one tenant per name over a shared pes-wide fabric.
// Earlier names are more critical.
func fleetTenants(t *testing.T, pes int, names ...string) []Tenant {
	t.Helper()
	tenants := make([]Tenant, len(names))
	for i, name := range names {
		cfg := tgff.Config{Seed: int64(100 + i), Nodes: 14, PEs: pes, Branches: 2, Category: tgff.ForkJoin}
		g, p, err := tgff.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = Tenant{
			Name:        name,
			Criticality: len(names) - i,
			G:           g,
			P:           p,
			Opts:        Options{GuardBand: 0.3},
		}
	}
	return tenants
}

func fleetVectors(tenants []Tenant, n int) [][][]int {
	vecs := make([][][]int, len(tenants))
	for i, tn := range tenants {
		vecs[i] = trace.Fluctuating(tn.G, int64(5+i), n, 0.45)
	}
	return vecs
}

func testModel() power.Model {
	return power.Model{IdlePEPower: 0.05, IdleLinkPower: 0.002}
}

// An infinite cap is a governor that never binds: the fleet must produce
// bit-for-bit the same per-tenant statistics as one with no budget at all.
// This pins the zero-interference property — measurement and the primed-but-
// idle ladder cost nothing behaviorally.
func TestFleetInfiniteCapMatchesUnbudgeted(t *testing.T) {
	tenants := fleetTenants(t, 6, "alpha", "beta")
	vecs := fleetVectors(tenants, 120)

	base, err := NewFleet(tenants, FleetOptions{DeadlineFactor: 1.6})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.Run(vecs)
	if err != nil {
		t.Fatal(err)
	}

	gov, err := NewFleet(tenants, FleetOptions{
		DeadlineFactor: 1.6,
		Budget:         &power.Budget{Cap: math.Inf(1), Model: testModel()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := gov.Run(vecs)
	if err != nil {
		t.Fatal(err)
	}

	for i := range rb.Tenants {
		if rb.Tenants[i].Stats != rg.Tenants[i].Stats {
			t.Fatalf("tenant %s stats diverged under an infinite cap:\nno budget: %+v\ninf cap:   %+v",
				rb.Tenants[i].Name, rb.Tenants[i].Stats, rg.Tenants[i].Stats)
		}
	}
	if rg.Power == nil {
		t.Fatal("governed fleet must report power stats")
	}
	if rg.Power.WindowsOverCap != 0 || rg.Power.Escalations != 0 || rg.Power.MaxLevel != 0 {
		t.Fatalf("infinite cap must never bind: %+v", rg.Power)
	}
	if rb.Power != nil {
		t.Fatal("unbudgeted fleet must not report power stats")
	}
}

func TestFleetPartitionDisjointAndComplete(t *testing.T) {
	tenants := fleetTenants(t, 6, "a", "b", "c")
	f, err := NewFleet(tenants, FleetOptions{DeadlineFactor: 1.6})
	if err != nil {
		t.Fatal(err)
	}
	var all []int
	for i := range tenants {
		part := f.Partition(i)
		if len(part) < 1 {
			t.Fatalf("tenant %d granted no PEs", i)
		}
		all = append(all, part...)
		if alive := f.Manager(i).p.NumAlivePEs(); alive != len(part) {
			t.Fatalf("tenant %d manager sees %d alive PEs, partition has %d", i, alive, len(part))
		}
	}
	sort.Ints(all)
	if len(all) != 6 {
		t.Fatalf("partitions cover %d PEs, want all 6", len(all))
	}
	for i, pe := range all {
		if pe != i {
			t.Fatalf("partitions are not a disjoint cover of the fabric: %v", all)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	good := func() []Tenant { return fleetTenants(t, 6, "a", "b") }
	cases := []struct {
		name    string
		tenants func() []Tenant
		opts    FleetOptions
	}{
		{"no tenants", func() []Tenant { return nil }, FleetOptions{}},
		{"duplicate names", func() []Tenant {
			ts := good()
			ts[1].Name = ts[0].Name
			return ts
		}, FleetOptions{}},
		{"empty name", func() []Tenant {
			ts := good()
			ts[0].Name = ""
			return ts
		}, FleetOptions{}},
		{"failures timeline", func() []Tenant {
			ts := good()
			ts[1].Opts.Failures = &faults.Timeline{}
			return ts
		}, FleetOptions{}},
		{"more tenants than PEs", func() []Tenant {
			return fleetTenants(t, 2, "a", "b", "c")
		}, FleetOptions{}},
		{"bad budget cap", good, FleetOptions{Budget: &power.Budget{Cap: -5}}},
		{"nan budget cap", good, FleetOptions{Budget: &power.Budget{Cap: math.NaN()}}},
	}
	for _, tc := range cases {
		if _, err := NewFleet(tc.tenants(), tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// A pre-restricted tenant platform is rejected: the fleet owns the
	// partition.
	ts := good()
	m := ts[0].P.AvailabilityMask()
	m.PEs[0] = false
	rp, err := ts[0].P.Restrict(m)
	if err != nil {
		t.Fatal(err)
	}
	ts[0].P = rp
	if _, err := NewFleet(ts, FleetOptions{}); err == nil {
		t.Error("pre-restricted tenant platform accepted")
	}
}

func TestFleetStepVectorCount(t *testing.T) {
	tenants := fleetTenants(t, 6, "a", "b")
	f, err := NewFleet(tenants, FleetOptions{DeadlineFactor: 1.6})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Step([][]int{nil}); err == nil {
		t.Fatal("step with wrong vector count accepted")
	}
}

// ungovernedPower measures what the cap would have seen with no enforcement:
// the baseline the degradation tests scale their caps from.
func ungovernedPower(t *testing.T, tenants []Tenant, vecs [][][]int) float64 {
	t.Helper()
	f, err := NewFleet(tenants, FleetOptions{
		DeadlineFactor: 1.6,
		Budget:         &power.Budget{Cap: 1, Model: testModel()},
		Ungoverned:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Run(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Power == nil || !(r.Power.MaxWindowPower > 0) {
		t.Fatalf("ungoverned fleet measured no power: %+v", r.Power)
	}
	return r.Power.MaxWindowPower
}

// A cap below the undegraded fleet's draw must drive the ladder — and the
// ladder must never touch the most critical tenant's hardware, never shed it,
// and never move twice within one measurement window (the no-flap invariant).
func TestFleetGovernedDegradationProtectsCritical(t *testing.T) {
	tenants := fleetTenants(t, 6, "hi", "lo")
	vecs := fleetVectors(tenants, 160)
	p0 := ungovernedPower(t, tenants, vecs)

	const window = 8
	rec := telemetry.NewMemoryRecorder()
	f, err := NewFleet(tenants, FleetOptions{
		DeadlineFactor: 1.6,
		Budget:         &power.Budget{Cap: 0.6 * p0, Window: window, Model: testModel()},
		Recorder:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Run(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Power.MaxLevel == 0 {
		t.Fatalf("a 60%% cap never engaged the ladder: %+v", r.Power)
	}
	hi := r.Tenants[0]
	if hi.Name != "hi" {
		t.Fatalf("tenant order changed: %+v", r.Tenants)
	}
	if hi.ShedRounds != 0 {
		t.Fatalf("most critical tenant was shed for %d rounds", hi.ShedRounds)
	}
	if hi.PEs != hi.GrantedPEs {
		t.Fatalf("most critical tenant lost PEs: holds %d of %d", hi.PEs, hi.GrantedPEs)
	}
	if hi.Stats.Instances != r.Rounds {
		t.Fatalf("most critical tenant ran %d of %d rounds", hi.Stats.Instances, r.Rounds)
	}

	// No-flap: every runtime ladder move is one event; successive moves must
	// be at least one full measurement window apart (priming events at round
	// 0 excluded — they precede any measurement).
	var moves []int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case telemetry.KindPERevoked, telemetry.KindTenantDegraded, telemetry.KindTenantRestored:
			if ev.Instance > 0 {
				moves = append(moves, ev.Instance)
			}
		}
	}
	for i := 1; i < len(moves); i++ {
		if d := moves[i] - moves[i-1]; d < window {
			t.Fatalf("ladder moved twice within one window: rounds %v", moves)
		}
	}
}

// A brutal cap forces the ladder to its top: the low-criticality tenant is
// shed (its PEs power-gated, its rounds skipped) while the critical tenant
// keeps running every round.
func TestFleetBrutalCapShedsLowCriticality(t *testing.T) {
	tenants := fleetTenants(t, 6, "hi", "lo")
	vecs := fleetVectors(tenants, 80)
	p0 := ungovernedPower(t, tenants, vecs)

	f, err := NewFleet(tenants, FleetOptions{
		DeadlineFactor: 1.6,
		Budget:         &power.Budget{Cap: 0.05 * p0, Model: testModel()},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Run(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Power.PrimedLevel == 0 {
		t.Fatalf("a 5%% cap must prime the ladder above level 0: %+v", r.Power)
	}
	lo := r.Tenants[1]
	if lo.ShedRounds == 0 {
		t.Fatalf("low-criticality tenant was never shed: %+v", lo)
	}
	if lo.Stats.Instances+lo.ShedRounds != r.Rounds {
		t.Fatalf("shed accounting: %d instances + %d shed != %d rounds",
			lo.Stats.Instances, lo.ShedRounds, r.Rounds)
	}
	hi := r.Tenants[0]
	if hi.Stats.Instances != r.Rounds || hi.ShedRounds != 0 {
		t.Fatalf("critical tenant must run every round: %+v", hi)
	}
	if f.LadderLen() == 0 || f.Governor() == nil {
		t.Fatal("governed fleet must expose its ladder and governor")
	}
}
