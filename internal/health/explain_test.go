package health_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ctgdvfs/internal/core"
	"ctgdvfs/internal/faults"
	"ctgdvfs/internal/health"
	"ctgdvfs/internal/power"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// writeFixture encodes a captured stream as a committed JSONL fixture.
func writeFixture(t *testing.T, name string, events []telemetry.Event) {
	t.Helper()
	var buf bytes.Buffer
	jr := telemetry.NewJSONLRecorder(&buf)
	for _, e := range events {
		jr.Record(e)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadFixture reads a committed JSONL fixture through the same LoadEvents
// path `ctgsched explain` uses.
func loadFixture(t *testing.T, name string) []telemetry.Event {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	events, format, err := health.LoadEvents(data, "")
	if err != nil {
		t.Fatal(err)
	}
	if format != "jsonl" {
		t.Fatalf("fixture format %q, want jsonl", format)
	}
	return events
}

// adaptiveProvenanceEvents captures a recovery-enabled adaptive run under an
// overrun fault plan: the stream carries drift reschedules, fallback replays
// and circuit-breaker moves, all seq/cause-linked.
func adaptiveProvenanceEvents(t *testing.T) []telemetry.Event {
	t.Helper()
	cfg := tgff.Config{Seed: 65, Nodes: 18, PEs: 3, Branches: 2, Category: tgff.ForkJoin}
	g0, p, err := tgff.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.TightenDeadline(g0, p, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.New(faults.Spec{Seed: 42, OverrunProb: 0.25, OverrunFactor: 1.2},
		g.NumTasks(), cfg.PEs)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewMemoryRecorder()
	m, err := core.New(g, p, core.Options{
		Window: 10, Threshold: 0.1,
		Faults: plan, Recovery: true, GuardBand: 0.2,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(trace.Fluctuating(g, 7, 60, 0.45)); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// fleetProvenanceEvents captures a power-governed two-tenant consolidation
// run whose cap binds: budget breaches, ladder rungs and the tenant
// reschedules they force, interleaved on one seq id space.
func fleetProvenanceEvents(t *testing.T) []telemetry.Event {
	t.Helper()
	tenants := func() []core.Tenant {
		names := []string{"hi", "lo"}
		ts := make([]core.Tenant, len(names))
		for i, name := range names {
			cfg := tgff.Config{Seed: int64(100 + i), Nodes: 14, PEs: 6, Branches: 2, Category: tgff.ForkJoin}
			g, p, err := tgff.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts[i] = core.Tenant{
				Name: name, Criticality: len(names) - i, G: g, P: p,
				Opts: core.Options{GuardBand: 0.3},
			}
		}
		return ts
	}
	vectors := func(ts []core.Tenant, n int) [][][]int {
		vecs := make([][][]int, len(ts))
		for i, tn := range ts {
			vecs[i] = trace.Fluctuating(tn.G, int64(5+i), n, 0.45)
		}
		return vecs
	}
	model := power.Model{IdlePEPower: 0.05, IdleLinkPower: 0.002}

	// Ungoverned pass measures what the cap would have seen; the governed
	// capture then runs just under the observed peak, so the governor primes
	// shallow (predictions are expectation-based) and the ladder engages at
	// runtime — a breach-caused escalation, not a priming one.
	base, err := core.NewFleet(tenants(), core.FleetOptions{
		DeadlineFactor: 1.6,
		Budget:         &power.Budget{Cap: 1, Model: model},
		Ungoverned:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.Run(vectors(tenants(), 40))
	if err != nil {
		t.Fatal(err)
	}
	p0 := rb.Power.MaxWindowPower

	rec := telemetry.NewMemoryRecorder()
	ts := tenants()
	for i := range ts {
		ts[i].Opts.Recorder = rec
	}
	f, err := core.NewFleet(ts, core.FleetOptions{
		DeadlineFactor: 1.6,
		Budget:         &power.Budget{Cap: 0.97 * p0, Window: 8, PrimeMargin: 0.001, Model: model},
		Recorder:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(vectors(ts, 40)); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// TestExplainGoldens is the acceptance test of `ctgsched explain`: from
// committed captured streams, the engine must reconstruct the complete
// trigger → decision → effects chain for a drift reschedule, a fallback
// activation, and a fleet degradation rung. -update regenerates the fixtures
// and goldens together (span latencies are wall-clock, so they are only
// stable inside one captured fixture).
func TestExplainGoldens(t *testing.T) {
	if *update {
		writeFixture(t, "provenance_adaptive.jsonl", adaptiveProvenanceEvents(t))
		writeFixture(t, "provenance_fleet.jsonl", fleetProvenanceEvents(t))
	}

	adaptive := loadFixture(t, "provenance_adaptive.jsonl")
	fleet := loadFixture(t, "provenance_fleet.jsonl")

	t.Run("reschedule", func(t *testing.T) {
		// Pin a drift-triggered reschedule: the chain must run
		// instance_start → window_estimate → reschedule.
		var seq uint64
		for _, e := range adaptive {
			if e.Kind == telemetry.KindReschedule && e.Reason == "drift" {
				seq = e.Seq
			}
		}
		if seq == 0 {
			t.Fatal("fixture carries no drift reschedule")
		}
		x, err := health.Explain(adaptive, health.ExplainQuery{Seq: seq, Instance: -1})
		if err != nil {
			t.Fatal(err)
		}
		assertChainKinds(t, x, telemetry.KindInstanceStart, telemetry.KindEstimate, telemetry.KindReschedule)
		checkGolden(t, "explain_reschedule.golden", x.Render())
	})

	t.Run("fallback", func(t *testing.T) {
		x, err := health.Explain(adaptive, health.ExplainQuery{Kind: "fallback", Instance: -1})
		if err != nil {
			t.Fatal(err)
		}
		assertChainKinds(t, x, telemetry.KindInstanceStart, telemetry.KindFallback)
		checkGolden(t, "explain_fallback.golden", x.Render())
	})

	t.Run("fleet-degradation", func(t *testing.T) {
		x, err := health.Explain(fleet, health.ExplainQuery{Kind: "tenant_degraded", Instance: -1})
		if err != nil {
			t.Fatal(err)
		}
		assertChainKinds(t, x, telemetry.KindBudgetExceeded, telemetry.KindTenantDegraded)
		if len(x.Effects) == 0 {
			t.Fatal("ladder rung recorded no tenant effects")
		}
		checkGolden(t, "explain_fleet.golden", x.Render())
	})

	t.Run("list", func(t *testing.T) {
		ds := health.Decisions(adaptive)
		if len(ds) == 0 {
			t.Fatal("no decisions listed")
		}
		for _, d := range ds {
			if d.Kind == telemetry.KindTaskSlice || d.Kind == telemetry.KindEstimate {
				t.Fatalf("non-decision kind %s listed", d.Kind)
			}
		}
	})
}

// TestProvenanceStreamOracle pins the complete event streams behind the
// explain fixtures: regenerating both runs live must reproduce the committed
// JSONL event by event — same kinds, order, seq ids, causes and fields. Span
// values are wall-clock latencies, so they are zeroed on both sides.
func TestProvenanceStreamOracle(t *testing.T) {
	for _, c := range []struct {
		fixture string
		live    func(*testing.T) []telemetry.Event
	}{
		{"provenance_adaptive.jsonl", adaptiveProvenanceEvents},
		{"provenance_fleet.jsonl", fleetProvenanceEvents},
	} {
		t.Run(c.fixture, func(t *testing.T) {
			want := zeroSpanValues(loadFixture(t, c.fixture))
			// Round-trip the live stream through the fixture's own encoding,
			// so both sides decode identically (nil vs empty slices, floats).
			var buf bytes.Buffer
			jr := telemetry.NewJSONLRecorder(&buf)
			for _, e := range c.live(t) {
				jr.Record(e)
			}
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}
			got, _, err := health.LoadEvents(buf.Bytes(), "")
			if err != nil {
				t.Fatal(err)
			}
			got = zeroSpanValues(got)
			for i := 0; i < len(got) && i < len(want); i++ {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("event %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("live stream has %d events, fixture %d", len(got), len(want))
			}
		})
	}
}

// zeroSpanValues clears the wall-clock latency of every pipeline span.
func zeroSpanValues(events []telemetry.Event) []telemetry.Event {
	for i := range events {
		if events[i].Kind == telemetry.KindSpan {
			events[i].Value = 0
		}
	}
	return events
}

// assertChainKinds checks the causal chain passes through the given kinds in
// order (other links may sit between them).
func assertChainKinds(t *testing.T, x *health.Explanation, kinds ...telemetry.Kind) {
	t.Helper()
	i := 0
	for _, e := range x.Chain {
		if i < len(kinds) && e.Kind == kinds[i] {
			i++
		}
	}
	if i != len(kinds) {
		var got []string
		for _, e := range x.Chain {
			got = append(got, string(e.Kind))
		}
		t.Fatalf("chain %v missing expected subsequence %v", got, kinds)
	}
}

// TestExplainErrors covers the engine's failure modes.
func TestExplainErrors(t *testing.T) {
	unsequenced := []telemetry.Event{
		{Kind: telemetry.KindReschedule, Instance: 0, Reason: "initial"},
	}
	if _, err := health.Explain(unsequenced, health.ExplainQuery{Instance: -1}); err == nil ||
		!strings.Contains(err.Error(), "no seq ids") {
		t.Fatalf("unsequenced stream accepted: %v", err)
	}
	sequenced := []telemetry.Event{
		{Kind: telemetry.KindReschedule, Instance: 0, Reason: "initial", Seq: 1},
	}
	if _, err := health.Explain(sequenced, health.ExplainQuery{Seq: 99}); err == nil ||
		!strings.Contains(err.Error(), "no event with seq") {
		t.Fatalf("unknown seq accepted: %v", err)
	}
	if _, err := health.Explain(sequenced, health.ExplainQuery{Kind: "fallback", Instance: -1}); err == nil ||
		!strings.Contains(err.Error(), "no decision matches") {
		t.Fatalf("unmatched query accepted: %v", err)
	}
}

// TestLoadEventsTruncatedTail pins the tolerant reader: a capture whose
// final line was torn mid-write parses to its intact prefix with a typed
// warning, while mid-stream corruption stays fatal.
func TestLoadEventsTruncatedTail(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "truncated.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	events, format, err := health.LoadEvents(data, "")
	var tail *health.TruncatedTailError
	if !errors.As(err, &tail) {
		t.Fatalf("want TruncatedTailError, got %v", err)
	}
	if format != "jsonl" || len(events) != 4 {
		t.Fatalf("prefix not recovered: format %q, %d events", format, len(events))
	}
	if events[3].Kind != telemetry.KindReschedule {
		t.Fatalf("prefix corrupted: %+v", events[3])
	}
	if tail.Line != 5 {
		t.Fatalf("torn line reported as %d, want 5", tail.Line)
	}

	// The same torn line mid-stream (events after it) is corruption, not
	// truncation: hard error, no events returned.
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	midStream := bytes.Join([][]byte{lines[0], lines[4], lines[1]}, []byte("\n"))
	if evs, _, err := health.LoadEvents(midStream, ""); err == nil || errors.As(err, &tail) || evs != nil {
		t.Fatalf("mid-stream corruption tolerated: %d events, %v", len(evs), err)
	}
}

// TestPipelineSection pins the span accumulator's arithmetic and ordering.
func TestPipelineSection(t *testing.T) {
	span := func(phase string, us float64) telemetry.Event {
		return telemetry.Event{Kind: telemetry.KindSpan, Name: phase, Value: us}
	}
	s := health.Analyze([]telemetry.Event{
		span("stretch", 30), span("dls", 100), span("dls", 300), span("diff", 7),
	}, health.Options{})
	if s.Pipeline == nil {
		t.Fatal("pipeline section missing")
	}
	if s.Pipeline.Spans != 4 || len(s.Pipeline.Phases) != 3 {
		t.Fatalf("pipeline shape wrong: %+v", s.Pipeline)
	}
	// Pipeline order, not alphabetical: diff before dls before stretch.
	if s.Pipeline.Phases[0].Phase != "diff" || s.Pipeline.Phases[1].Phase != "dls" ||
		s.Pipeline.Phases[2].Phase != "stretch" {
		t.Fatalf("phase order wrong: %+v", s.Pipeline.Phases)
	}
	dls := s.Pipeline.Phases[1]
	if dls.Count != 2 || dls.Mean != 200 || dls.Min != 100 || dls.Max != 300 || dls.Total != 400 {
		t.Fatalf("dls aggregation wrong: %+v", dls)
	}
	// A spanless stream keeps the section (and its report block) absent.
	s2 := health.Analyze([]telemetry.Event{
		{Kind: telemetry.KindInstanceFinish, Met: true, Makespan: 10},
	}, health.Options{})
	if s2.Pipeline != nil {
		t.Fatal("pipeline section present without spans")
	}
	if strings.Contains(s2.Report(), "pipeline") {
		t.Fatal("report renders a pipeline block without spans")
	}
}
