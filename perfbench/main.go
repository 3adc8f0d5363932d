// Command perfbench is the repository's end-to-end benchmark. It runs one of
// three workloads — the ctgschedd daemon over HTTP, a 10³-task reschedule, and
// the Figure 5 / Table 2 campaign — checks every output for correctness, and
// prints one JSON result as its last line of standard output:
//
//	perfbench --workload daemon-mix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// workload runs once untraced and once with in-memory spans around every
// call into a layer, and the result holds the per-layer metrics. README.md
// explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workDir holds everything a run writes: checkpoint directories and span
// dumps. It is relative to the checkout root the benchmark runs from.
const workDir = ".bench_build/work"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a name → metric map that remembers insertion order for the
// human-readable report.
type metrics struct {
	order []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name string, v float64, unit string) {
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

// split moves the metrics whose names start with prefix into a new set.
func (ms *metrics) split(prefix string) *metrics {
	out := newMetrics()
	var keep []string
	for _, name := range ms.order {
		if strings.HasPrefix(name, prefix) {
			out.set(name, ms.m[name].Value, ms.m[name].Unit)
			delete(ms.m, name)
		} else {
			keep = append(keep, name)
		}
	}
	ms.order = keep
	return out
}

// outcome counts the operations a workload attempted and how many failed,
// where a failure is an error, a rejection or an output that differs from
// its reference.
type outcome struct {
	attempted, failed int
	notes             []string
}

// check records one attempted operation; ok=false counts it as failed and
// keeps the first few reasons for the report.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.notes) < 10 {
			o.notes = append(o.notes, fmt.Sprintf(format, args...))
		}
	}
}

func (o *outcome) okRatio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return 1 - float64(o.failed)/float64(o.attempted)
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// scale returns n scaled by the run length relative to the 30-second sizing
// the workloads were tuned for, never below lo.
func (c config) scale(n, lo int) int {
	v := int(math.Round(float64(n) * float64(c.seconds) / 30))
	if v < lo {
		v = lo
	}
	return v
}

// workload runs once untraced (tr == nil) or traced, filling end-to-end
// metrics (e2e) and, when traced, per-layer metrics (layers).
type workload func(cfg config, out *outcome, e2e, layers *metrics, tr *tracer) error

// endToEnd and perLayer declare every metric a run reports, in the order
// BENCHMARK.json lists them. Each workload fills every end-to-end metric; a
// per-layer metric of a layer the workload does not reach reads 0. An
// end-to-end figure named info.* is printed for the reader but left out of
// the result: it spread too widely between runs on a shared 2-core host to
// be held to a bound (README.md gives the spreads).
var endToEnd = []declared{
	{"setup_s", "s"}, {"ok_ratio", "ratio"}, {"alloc_mb", "MB"},
	{"p50_ms", "ms"}, {"long_s", "s"},
}

var perLayer = []declared{
	{"serve.rtt_p50_us", "us"}, {"serve.rtt_p99_us", "us"},
	{"serve.handler_p50_us", "us"}, {"serve.handler_p99_us", "us"},
	{"serve.transport_p50_us", "us"},
	{"serve.step_p50_us", "us"}, {"serve.step_p99_us", "us"},
	{"serve.checkpoint_ms", "ms"}, {"serve.checkpoint_kb", "KB"},
	{"serve.checkpoints", "count"}, {"serve.rejected", "count"},
	{"serve.restore_us_per_instance", "us"},
	{"core.step_p50_us", "us"}, {"core.step_resched_p50_us", "us"}, {"core.step_resched_p99_us", "us"},
	{"core.reschedules", "count"}, {"core.cache_hit_ratio", "ratio"}, {"core.cache_lookups", "count"},
	{"core.warm_starts", "count"}, {"core.warm_fallbacks", "count"},
	{"core.recompute_match", "count"}, {"core.recompute_compared", "count"},
	{"sim.replay_p50_us", "us"}, {"sim.replays", "count"},
	{"ctg.analyze_us", "us"}, {"ctg.scenarios", "count"},
	{"sched.dls_ms", "ms"}, {"sched.validate_us", "us"},
	{"stretch.heuristic_ms", "ms"}, {"stretch.partial_ms", "ms"}, {"stretch.share", "ratio"},
	{"resched.unexplained_pct", "%"},
	{"par.serial_s", "s"}, {"par.workers", "count"}, {"par.speedup", "x"}, {"par.efficiency", "ratio"},
	{"exp.clip_max_s", "s"}, {"exp.clip_mean_s", "s"}, {"exp.static_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
	{"self.http_ms", "ms"}, {"self.serve_ms", "ms"}, {"self.core_ms", "ms"}, {"self.sim_ms", "ms"},
	{"self.ctg_ms", "ms"}, {"self.sched_ms", "ms"}, {"self.stretch_ms", "ms"}, {"self.par_ms", "ms"},
	{"self.exp_ms", "ms"},
}

type declared struct{ name, unit string }

// conform checks that ms holds only declared metrics with their declared
// units; with fill, a missing one is added as 0, otherwise it is an error.
func conform(ms *metrics, decl []declared, fill bool) error {
	known := map[string]string{}
	for _, d := range decl {
		known[d.name] = d.unit
		if _, ok := ms.m[d.name]; !ok {
			if !fill {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			ms.set(d.name, 0, d.unit)
		}
	}
	for name, v := range ms.m {
		if unit, ok := known[name]; !ok || unit != v.Unit {
			return fmt.Errorf("metric %s [%s] is not declared", name, v.Unit)
		}
	}
	return nil
}

var workloads = map[string]workload{
	"daemon-mix":      runDaemon,
	"resched-1k":      runResched,
	"campaign-table2": runCampaign,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "daemon-mix, resched-1k or campaign-table2")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed (ignored by campaign-table2, whose inputs are fixed)")
	flag.IntVar(&cfg.seconds, "seconds", 30, "run length the workload sizes its work for")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	host := hostRecord()
	fmt.Printf("host: %s\n", host)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	var out outcome
	e2e, layers := newMetrics(), newMetrics()
	if err := wl(cfg, &out, e2e, nil, nil); err != nil {
		return err
	}
	e2e.set("ok_ratio", out.okRatio(), "ratio")
	info := e2e.split("info.")
	if err := conform(e2e, endToEnd, false); err != nil {
		return err
	}
	report := e2e
	if cfg.trace {
		tr := newTracer()
		var traced outcome
		tracedE2E := newMetrics()
		if err := wl(cfg, &traced, tracedE2E, layers, tr); err != nil {
			return err
		}
		out.attempted += traced.attempted
		out.failed += traced.failed
		out.notes = append(out.notes, traced.notes...)
		// Tracing cost: the traced run's headline latency against the
		// untraced one's, as a percentage.
		base, with := e2e.m["p50_ms"].Value, tracedE2E.m["p50_ms"].Value
		layers.set("trace.overhead_pct", 100*(with-base)/base, "%")
		tr.selfTimes(layers)
		layers.set("trace.spans", float64(len(tr.spans)), "count")
		path, err := tr.dump(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
		if err := conform(layers, perLayer, true); err != nil {
			return err
		}
		report = layers
	}

	fmt.Println("end-to-end:")
	printMetrics(e2e)
	if len(info.order) > 0 {
		fmt.Println("also measured, not bounded:")
		printMetrics(info)
	}
	if cfg.trace {
		fmt.Println("per-layer:")
		printMetrics(layers)
	}
	fmt.Printf("fail_ratio: %d/%d\n", out.failed, out.attempted)
	for _, n := range out.notes {
		fmt.Println("failure:", n)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, report.m}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(ms *metrics) {
	for _, name := range ms.order {
		v := ms.m[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
}

// hostRecord describes the machine a result was measured on.
func hostRecord() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version())
}

// allocMeter measures bytes allocated across the timed phases of a run.
type allocMeter struct {
	bytes uint64
	start uint64
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (a *allocMeter) begin() { a.start = totalAlloc() }
func (a *allocMeter) end()   { a.bytes += totalAlloc() - a.start }
func (a *allocMeter) mb() float64 {
	return float64(a.bytes) / (1 << 20)
}

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// freshDir creates an empty run-private directory under workDir.
func freshDir(prefix string) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(workDir)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, prefix+"-")
}
