package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/tgff"
	"ctgdvfs/internal/trace"
)

// pollCtx is a context whose Err flips to context.DeadlineExceeded after a
// fixed number of polls, making mid-pipeline cancellation deterministic.
type pollCtx struct {
	mu    sync.Mutex
	polls int
	fuse  int
}

func (c *pollCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.polls > c.fuse {
		return context.DeadlineExceeded
	}
	return nil
}
func (c *pollCtx) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}
func (c *pollCtx) Done() <-chan struct{}       { return nil }
func (c *pollCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *pollCtx) Value(any) any               { return nil }

// cancelWorkload builds a manager that reschedules on every step (threshold
// zero), so cancellation checkpoints are reliably exercised.
func cancelManager(t *testing.T, perScenario bool) (*Manager, [][]int) {
	t.Helper()
	g, cfg := testWorkload(t, 11)
	_, p, err := tgff.Generate(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err = TightenDeadline(g, p, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.SetThreshold(0) // always reschedule
	opts.PerScenario = perScenario
	m, err := New(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, trace.Fluctuating(g, 3, 30, 0.4)
}

func TestStepCtxCancelLeavesIncumbentUntouched(t *testing.T) {
	for _, perScenario := range []bool{false, true} {
		m, vecs := cancelManager(t, perScenario)
		for i, v := range vecs[:5] {
			if _, err := m.Step(v); err != nil {
				t.Fatalf("perScenario=%v warmup %d: %v", perScenario, i, err)
			}
		}
		before := m.Schedule()
		instances, calls := m.Instances(), m.Calls()

		fc := &pollCtx{fuse: 3}
		_, err := m.StepCtx(fc, vecs[5])
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("perScenario=%v: want DeadlineExceeded, got %v", perScenario, err)
		}
		if fc.count() <= fc.fuse {
			t.Fatalf("perScenario=%v: pipeline never polled past the fuse", perScenario)
		}
		// The incumbent schedule is the same object — a cancelled pipeline
		// must not have adopted anything.
		if m.Schedule() != before {
			t.Fatalf("perScenario=%v: incumbent schedule replaced by a cancelled step", perScenario)
		}
		if m.Instances() != instances {
			t.Fatalf("perScenario=%v: cancelled step advanced instances %d → %d",
				perScenario, instances, m.Instances())
		}
		if m.Calls() != calls {
			t.Fatalf("perScenario=%v: cancelled step counted a completed call", perScenario)
		}
	}
}

// TestStepCtxCancelInsideStretch cancels a full reschedule on its last poll,
// which lands inside the stretch step — past every DLS placement round — in
// both stretching modes. The incumbent must stay untouched, and in
// single-speed mode the warm workspace, already rebound to the discarded
// mapping, must be marked stale so no later warm attempt retargets it.
func TestStepCtxCancelInsideStretch(t *testing.T) {
	for _, perScenario := range []bool{false, true} {
		m, vecs := cancelManager(t, perScenario)
		twin, _ := cancelManager(t, perScenario)
		for i, v := range vecs[:5] {
			if _, err := m.Step(v); err != nil {
				t.Fatalf("perScenario=%v warmup %d: %v", perScenario, i, err)
			}
			if _, err := twin.Step(v); err != nil {
				t.Fatalf("perScenario=%v twin warmup %d: %v", perScenario, i, err)
			}
		}
		// The twin counts the polls of the uncancelled step.
		full := &pollCtx{fuse: 1 << 30}
		if _, err := twin.StepCtx(full, vecs[5]); err != nil {
			t.Fatalf("perScenario=%v: twin step: %v", perScenario, err)
		}
		// One placement round per task; the step itself polls once first.
		dls := &pollCtx{fuse: 1 << 30}
		ws := sched.NewWorkspace()
		ws.Cancel = dls.Err
		if _, err := sched.DLSInto(m.a, m.p, sched.Modified(), ws); err != nil {
			t.Fatal(err)
		}
		fc := &pollCtx{fuse: full.count() - 1}
		if fc.fuse <= 1+dls.count() {
			t.Fatalf("perScenario=%v: fuse %d does not pass the %d DLS rounds", perScenario, fc.fuse, dls.count())
		}

		before, speeds := m.Schedule(), m.ScenarioSpeeds()
		instances, calls := m.Instances(), m.Calls()
		if _, err := m.StepCtx(fc, vecs[5]); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("perScenario=%v: want DeadlineExceeded, got %v", perScenario, err)
		}
		if fc.count() != full.count() {
			t.Fatalf("perScenario=%v: cancelled step polled %d times, uncancelled %d", perScenario, fc.count(), full.count())
		}
		if m.Schedule() != before || m.ScenarioSpeeds() != speeds {
			t.Fatalf("perScenario=%v: incumbent replaced by a step cancelled inside stretch", perScenario)
		}
		if m.Instances() != instances || m.Calls() != calls {
			t.Fatalf("perScenario=%v: cancelled step moved instances %d → %d, calls %d → %d",
				perScenario, instances, m.Instances(), calls, m.Calls())
		}
		if !perScenario && m.warm.wsGen == m.mapGen {
			t.Fatal("warm workspace still marked current after a cancelled full-path stretch")
		}
	}
}

func TestStepCtxCompletedThenCancelledIdentical(t *testing.T) {
	// A step whose context expires only after the pipeline completed must be
	// bit-for-bit identical to an uncancelled step of the same manager state.
	mA, vecs := cancelManager(t, false)
	mB, _ := cancelManager(t, false)
	for i, v := range vecs[:8] {
		ra, err := mA.Step(v)
		if err != nil {
			t.Fatalf("A step %d: %v", i, err)
		}
		// B runs every step under a context that never fires during the
		// pipeline (huge fuse) — the context machinery itself must not
		// perturb results.
		fc := &pollCtx{fuse: 1 << 30}
		rb, err := mB.StepCtx(fc, v)
		if err != nil {
			t.Fatalf("B step %d: %v", i, err)
		}
		if ra != rb {
			t.Fatalf("step %d: StepCtx result diverged from Step:\n %+v\nvs %+v", i, ra, rb)
		}
	}
	if mA.Calls() != mB.Calls() || mA.Instances() != mB.Instances() {
		t.Fatalf("counters diverged: calls %d/%d instances %d/%d",
			mA.Calls(), mB.Calls(), mA.Instances(), mB.Instances())
	}
}

func TestStepCtxPreExpiredRefusedCleanly(t *testing.T) {
	m, vecs := cancelManager(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.StepCtx(ctx, vecs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if m.Instances() != 0 || m.Calls() != 0 {
		t.Fatalf("pre-expired context touched state: instances=%d calls=%d",
			m.Instances(), m.Calls())
	}
}
