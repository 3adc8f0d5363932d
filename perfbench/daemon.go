package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ctgdvfs/internal/apps/cruise"
	"ctgdvfs/internal/apps/mpeg"
	"ctgdvfs/internal/core"
	"ctgdvfs/internal/ctg"
	"ctgdvfs/internal/platform"
	"ctgdvfs/internal/serve"
	"ctgdvfs/internal/telemetry"
	"ctgdvfs/internal/trace"
)

// daemon-mix: an in-process ctgschedd (serve.New behind serve.NewHTTPServer
// on loopback, checkpointing every 16 instances like the daemon's default)
// hosting one tenant per core, at most two: mpeg and cruise. Three timed
// phases: a closed loop (each tenant's sender sends its next instance when
// the reply arrives), an ordered open loop at a fixed rate per tenant, and a
// restart (Close, then serve.New restoring every tenant from its checkpoint).

const (
	daemonRounds     = 5   // set-ups + closed loops, and restarts, per run
	daemonClosed     = 300 // closed-loop instances per tenant at 30 s
	daemonOpen       = 800 // open-loop instances per tenant at 30 s
	daemonRate       = 100 // open-loop requests/second per tenant
	daemonCkptEvery  = 16  // ctgschedd's -checkpoint-every default
	daemonRecomputes = 50  // external recomputes per tenant, traced runs
	spanHeader       = "X-Perfbench-Span"
)

// daemonTenant is one hosted tenant and the decision stream it is fed.
type daemonTenant struct {
	spec serve.TenantSpec
	g    *ctg.Graph // the tenant's graph after deadline tightening
	p    *platform.Platform
	vecs [][]int // closed-loop instances, then open-loop instances
}

func daemonTenants(cfg config, n int) ([]daemonTenant, error) {
	specs := []serve.TenantSpec{
		{Name: "mpeg", Workload: "mpeg", DeadlineFactor: 1.6, Threshold: 0.1},
		{Name: "cruise", Workload: "cruise", DeadlineFactor: 1.6, Threshold: 0.1},
	}
	builds := []func() (*ctg.Graph, *platform.Platform, error){mpeg.Build, cruise.Build}
	k := min(len(specs), runtime.NumCPU())
	out := make([]daemonTenant, k)
	for i := range out {
		g0, p, err := builds[i]()
		if err != nil {
			return nil, err
		}
		g, err := core.TightenDeadline(g0, p, specs[i].DeadlineFactor)
		if err != nil {
			return nil, err
		}
		var vecs [][]int
		if specs[i].Workload == "mpeg" {
			// The paper's first clip with its own seed: the clip model's
			// scene regimes persist for frames, so at the few thousand
			// instances a run can afford, the seed alone moves the
			// reschedule count, and with it every timing, by ±15%.
			vecs = trace.MovieClips()[0].Generate(g, n)
		} else {
			vecs = trace.RoadSequence(g, cfg.seed, n)
		}
		out[i] = daemonTenant{spec: specs[i], g: g, p: p, vecs: vecs}
	}
	return out, nil
}

// daemon is one running ctgschedd: the server, its HTTP front and its
// checkpoint directory.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	dir  string
	reg  *telemetry.Registry
	done chan error
}

func daemonOptions(dir string, reg *telemetry.Registry) serve.Options {
	return serve.Options{CheckpointDir: dir, CheckpointEvery: daemonCkptEvery, Metrics: reg, Seed: 1}
}

// startDaemon sets a daemon up from scratch: an empty checkpoint directory,
// serve.New, one submit per tenant, and an HTTP listener on loopback.
func startDaemon(tenants []daemonTenant, tr *tracer) (*daemon, error) {
	dir, err := freshDir("daemon")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, reg: telemetry.NewRegistry(), done: make(chan error, 1)}
	if d.srv, err = serve.New(daemonOptions(dir, d.reg)); err != nil {
		return nil, err
	}
	for _, t := range tenants {
		if _, err := d.srv.CreateTenant(t.spec); err != nil {
			d.srv.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = serve.NewHTTPServer(traceHandler(d.srv.Handler(), tr))
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stopHTTP shuts the HTTP front down and waits for its serve loop to exit.
func (d *daemon) stopHTTP() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// discard stops a daemon and deletes its checkpoints.
func (d *daemon) discard() error {
	err := d.stopHTTP()
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

type spanKey struct{}

// traceHandler wraps the daemon's handler in a serve.handler span whose
// parent is the client's round-trip span, passed in spanHeader.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.begin("serve.handler", parent, r.URL.Path)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// spanTransport forwards the round-trip span id of the request's context
// to the server in spanHeader.
type spanTransport struct{ next http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int); ok && id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(id))
	}
	return t.next.RoundTrip(r)
}

// newSender returns a tenant's own client: one keep-alive connection, no
// retries (a rejected request counts as failed, not as slow).
func newSender(url string) *serve.Client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &serve.Client{BaseURL: url, HTTP: &http.Client{Transport: spanTransport{tp}}, MaxRetries: -1}
}

// sent is the outcome of one step request.
type sent struct {
	rep  serve.StepReply
	err  error
	late time.Duration // open loop: send time minus due time
	lat  time.Duration // open loop: reply time minus due time
}

// step sends one instance, recording its round trip as an http.rtt span
// when traced.
func step(ctx context.Context, c *serve.Client, tr *tracer, name string, i int, vec []int) (serve.StepReply, error) {
	if tr == nil {
		return c.Step(ctx, name, vec, serve.ChaosSpec{})
	}
	id := tr.begin("http.rtt", 0, fmt.Sprintf("%s/%d", name, i))
	rep, err := c.Step(context.WithValue(ctx, spanKey{}, id), name, vec, serve.ChaosSpec{})
	tr.end(id)
	return rep, err
}

// closedLoop sends instances [0, n) of every tenant, one sender per tenant,
// each sending its next instance when the previous reply arrives, and
// returns the instances completed per second.
func closedLoop(d *daemon, tenants []daemonTenant, n int, tr *tracer, res [][]sent) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for ti := range tenants {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			t := tenants[ti]
			c := newSender(d.url)
			defer c.HTTP.CloseIdleConnections()
			for i := 0; i < n; i++ {
				rep, err := step(context.Background(), c, tr, t.spec.Name, i, t.vecs[i])
				res[ti][i] = sent{rep: rep, err: err}
			}
		}(ti)
	}
	wg.Wait()
	return float64(n*len(tenants)) / time.Since(start).Seconds()
}

// openLoop sends instances [from, from+n) of every tenant at rate requests
// per second per tenant. Instance k is due at start + k/rate; a sender keeps
// at most one request in flight, so a slow reply delays the next send and
// that wait shows in the next request's latency, which is timed from its due
// time.
func openLoop(d *daemon, tenants []daemonTenant, from, n int, rate float64, tr *tracer, res [][]sent) {
	var wg sync.WaitGroup
	start := time.Now()
	period := time.Duration(float64(time.Second) / rate)
	for ti := range tenants {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			t := tenants[ti]
			c := newSender(d.url)
			defer c.HTTP.CloseIdleConnections()
			for k := 0; k < n; k++ {
				due := start.Add(time.Duration(k) * period)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sendAt := time.Now()
				i := from + k
				rep, err := step(context.Background(), c, tr, t.spec.Name, i, t.vecs[i])
				res[ti][i] = sent{rep: rep, err: err, late: sendAt.Sub(due), lat: time.Since(due)}
			}
		}(ti)
	}
	wg.Wait()
}

// refStep is the reference outcome of one instance.
type refStep struct {
	scenario    int
	met         bool
	energy      float64
	makespan    float64
	rescheduled bool
}

func (r refStep) matches(rep serve.StepReply) bool {
	return rep.Scenario == r.scenario && rep.Met == r.met && rep.Rescheduled == r.rescheduled &&
		math.Float64bits(rep.Energy) == math.Float64bits(r.energy) &&
		math.Float64bits(rep.Makespan) == math.Float64bits(r.makespan)
}

// reference replays a tenant's stream on a plain core.Manager configured
// like the daemon's tenant. Traced runs also time each step and probe the
// layers below it.
func reference(t daemonTenant, tr *tracer, pb *probes, st *stepTimes) ([]refStep, *core.Manager, error) {
	m, err := core.New(t.g, t.p, core.Options{Threshold: t.spec.Threshold})
	if err != nil {
		return nil, nil, err
	}
	out := make([]refStep, len(t.vecs))
	for i, v := range t.vecs {
		req := fmt.Sprintf("%s/%d", t.spec.Name, i)
		id := tr.begin("core.Step", 0, req)
		t0 := time.Now()
		res, err := m.Step(v)
		el := time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		out[i] = refStep{res.Instance.Scenario, res.Instance.DeadlineMet, res.Instance.Energy, res.Instance.Makespan, res.Rescheduled}
		if tr == nil {
			continue
		}
		st.add(el, res.Rescheduled)
		if err := pb.replayStep(m, res.Instance.Scenario, req); err != nil {
			return nil, nil, err
		}
		if res.Rescheduled {
			if err := pb.recompute(t.g, t.p, platform.DVFS{}, m, req); err != nil {
				return nil, nil, err
			}
		}
	}
	return out, m, nil
}

func runDaemon(cfg config, out *outcome, e2e, layers *metrics, tr *tracer) error {
	nClosed, nOpen := cfg.scale(daemonClosed, 50), cfg.scale(daemonOpen, 50)
	n := nClosed + nOpen
	tenants, err := daemonTenants(cfg, n)
	if err != nil {
		return err
	}

	// The reference every reply is checked against, outside the timed
	// phases: a plain manager per tenant fed the same stream.
	pb := &probes{tr: tr, maxRecomputes: daemonRecomputes * len(tenants)}
	var st stepTimes
	refs := make([][]refStep, len(tenants))
	var reschedules, hits, lookups int
	for ti, t := range tenants {
		ref, m, err := reference(t, tr, pb, &st)
		if err != nil {
			return err
		}
		refs[ti] = ref
		reschedules += m.Calls()
		cs := m.CacheStats()
		hits, lookups = hits+cs.Hits, lookups+cs.Hits+cs.Misses
	}
	checkReplies := func(res [][]sent, from, to int, phase string) {
		for ti, t := range tenants {
			for i := from; i < to; i++ {
				s := res[ti][i]
				if s.err != nil {
					out.check(false, "%s %s/%d: %v", phase, t.spec.Name, i, s.err)
				} else {
					out.check(refs[ti][i].matches(s.rep), "%s %s/%d: reply differs from the reference manager", phase, t.spec.Name, i)
				}
			}
		}
	}

	// Set-up and closed loop, several times: each round starts a fresh
	// daemon (the set-up) and runs the closed loop on it. The last daemon
	// goes on to the open loop and the restarts.
	res := make([][]sent, len(tenants))
	for i := range res {
		res[i] = make([]sent, n)
	}
	var alloc allocMeter
	var setups, rates []float64
	var d *daemon
	for k := 0; k < daemonRounds; k++ {
		if d != nil {
			if err := d.discard(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(tenants, tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		alloc.begin()
		rates = append(rates, closedLoop(d, tenants, nClosed, tr, res))
		alloc.end()
		checkReplies(res, 0, nClosed, "closed loop")
	}

	alloc.begin()
	openLoop(d, tenants, nClosed, nOpen, daemonRate, tr, res)
	alloc.end()
	checkReplies(res, nClosed, n, "open loop")
	var lat, late []float64
	for ti := range tenants {
		for _, s := range res[ti][nClosed:] {
			lat = append(lat, ms(s.lat))
			late = append(late, ms(s.late))
		}
	}

	if tr != nil {
		if err := checkpointProbe(d, tenants, layers); err != nil {
			return err
		}
	}
	if err := d.stopHTTP(); err != nil {
		return err
	}
	if err := d.srv.Close(); err != nil {
		return err
	}

	// Restart: restore every tenant from its last checkpoint, several
	// times; each restored daemon's Close checkpoints the same log again.
	var restores []float64
	for k := 0; k < daemonRounds; k++ {
		alloc.begin()
		t0 := time.Now()
		srv2, err := serve.New(daemonOptions(d.dir, telemetry.NewRegistry()))
		restores = append(restores, time.Since(t0).Seconds())
		alloc.end()
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		restored := map[string]int{}
		for _, st := range srv2.Tenants() {
			restored[st.Name] = st.Instances
		}
		for _, t := range tenants {
			out.check(restored[t.spec.Name] == n, "%s: restored %d instances, sent %d", t.spec.Name, restored[t.spec.Name], n)
		}
		if err := srv2.Close(); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}

	restore := quantile(restores, 0.5)
	e2e.set("setup_s", quantile(setups, 0.5), "s")
	e2e.set("alloc_mb", alloc.mb(), "MB")
	e2e.set("p50_ms", quantile(lat, 0.5), "ms")
	e2e.set("long_s", restore, "s")
	e2e.set("info.throughput_rps", quantile(rates, 0.5), "1/s")
	e2e.set("info.step_p95_ms", quantile(lat, 0.95), "ms")
	e2e.set("info.step_p99_ms", quantile(lat, 0.99), "ms")
	if tr == nil {
		return nil
	}

	rtt := tr.durations("http.rtt")
	handler := tr.durations("serve.handler")
	layers.set("serve.rtt_p50_us", usQuantile(rtt, 0.5), "us")
	layers.set("serve.rtt_p99_us", usQuantile(rtt, 0.99), "us")
	layers.set("serve.handler_p50_us", usQuantile(handler, 0.5), "us")
	layers.set("serve.handler_p99_us", usQuantile(handler, 0.99), "us")
	layers.set("serve.transport_p50_us", usQuantile(transportTimes(tr), 0.5), "us")
	layers.set("serve.restore_us_per_instance", restore*1e6/float64(n*len(tenants)), "us")
	layers.set("gen.late_p99_ms", quantile(late, 0.99), "ms")
	layers.set("core.reschedules", float64(reschedules), "count")
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	layers.set("core.cache_hit_ratio", ratio, "ratio")
	layers.set("core.cache_lookups", float64(lookups), "count")
	st.report(layers)
	pb.report(layers)
	if pb.matched != pb.compared {
		out.check(false, "external recompute matched %d of %d schedules", pb.matched, pb.compared)
	}
	return inProcessDaemon(tenants, refs, out, layers)
}

// transportTimes pairs each round-trip span with the handler span it caused
// and returns rtt − handler: client encode/decode plus loopback transport.
func transportTimes(tr *tracer) []time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	handler := map[int]time.Duration{}
	for _, s := range tr.spans {
		if s.Name == "serve.handler" && s.Parent != 0 {
			handler[s.Parent] = s.dur()
		}
	}
	var out []time.Duration
	for _, s := range tr.spans {
		if h, ok := handler[s.ID]; ok && s.Name == "http.rtt" {
			out = append(out, s.dur()-h)
		}
	}
	return out
}

// checkpointProbe times explicit Server.Checkpoint calls, sizes the
// snapshots on disk and reads the daemon's serve.* counters.
func checkpointProbe(d *daemon, tenants []daemonTenant, layers *metrics) error {
	var times []float64
	var kb float64
	for _, t := range tenants {
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			if _, err := d.srv.Checkpoint(t.spec.Name); err != nil {
				return err
			}
			times = append(times, ms(time.Since(t0)))
		}
		fi, err := os.Stat(filepath.Join(d.dir, t.spec.Name+".ckpt"))
		if err != nil {
			return err
		}
		kb += float64(fi.Size()) / 1024
	}
	layers.set("serve.checkpoint_ms", quantile(times, 0.5), "ms")
	layers.set("serve.checkpoint_kb", kb, "KB")
	layers.set("serve.checkpoints", float64(d.reg.Counter("serve.checkpoints").Value()), "count")
	var rejected int64
	for _, c := range []string{"serve.rejected_rate", "serve.rejected_queue", "serve.rejected_breaker", "serve.rejected_slo"} {
		rejected += d.reg.Counter(c).Value()
	}
	layers.set("serve.rejected", float64(rejected), "count")
	return nil
}

// inProcessDaemon feeds the same streams to a second daemon through
// Server.Step, without HTTP, one goroutine per tenant, and checks every
// reply against the reference.
func inProcessDaemon(tenants []daemonTenant, refs [][]refStep, out *outcome, layers *metrics) error {
	d, err := startDaemon(tenants, nil)
	if err != nil {
		return err
	}
	times := make([][]time.Duration, len(tenants))
	reps := make([][]sent, len(tenants))
	var wg sync.WaitGroup
	for ti := range tenants {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			t := tenants[ti]
			for _, v := range t.vecs {
				t0 := time.Now()
				rep, err := d.srv.Step(context.Background(), t.spec.Name, v, serve.ChaosSpec{})
				times[ti] = append(times[ti], time.Since(t0))
				reps[ti] = append(reps[ti], sent{rep: rep, err: err})
			}
		}(ti)
	}
	wg.Wait()
	var all []time.Duration
	for ti, t := range tenants {
		all = append(all, times[ti]...)
		for i, s := range reps[ti] {
			out.check(s.err == nil && refs[ti][i].matches(s.rep), "in-process %s/%d: %v", t.spec.Name, i, s.err)
		}
	}
	layers.set("serve.step_p50_us", usQuantile(all, 0.5), "us")
	layers.set("serve.step_p99_us", usQuantile(all, 0.99), "us")
	return d.discard()
}
