// Command perfbench is the repository's benchmark: one invocation runs one
// named workload in its own OS process, checks every answer the system
// gives against reference models and invariants, and prints each metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with all
// tracing off. With -trace 1 the run first measures the workload untraced
// and then traced, and reports the per-layer metrics plus the tracing
// overhead. See README.md for the workloads, metrics and reference runs.
//
//	perfbench -workload serve-small -seed 1 -seconds 10 -trace 0
//	perfbench repeat -workload serve-small -runs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// phaseDur is how long one timed phase runs: the whole run untraced, or
// half of it each for the untraced and the traced phase.
func (o options) phaseDur() time.Duration {
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	return d
}

// setupRuns is how many times a run builds its workload's state; setup_s
// is the median, so one slow start does not decide it.
const setupRuns = 11

var workloads = map[string]func(options) (*outcome, error){
	"serve-small":  serveSmall,
	"serve-memhog": serveMemhog,
	"spec-batch":   specBatch,
	"coldstart":    coldstart,
}

// phase holds the latency of every completed operation of one timed
// phase, grouped by operation kind (a tenant class, a program on an
// engine, a start path).
type phase struct {
	elapsed time.Duration
	kinds   []string
	lat     map[string][]int64
}

func newPhase() *phase { return &phase{lat: map[string][]int64{}} }

func (p *phase) observe(kind string, d time.Duration) {
	if _, ok := p.lat[kind]; !ok {
		p.kinds = append(p.kinds, kind)
	}
	p.lat[kind] = append(p.lat[kind], d.Nanoseconds())
}

// merge folds latencies gathered by another goroutine into p.
func (p *phase) merge(q *phase) {
	for _, k := range q.kinds {
		if _, ok := p.lat[k]; !ok {
			p.kinds = append(p.kinds, k)
		}
		p.lat[k] = append(p.lat[k], q.lat[k]...)
	}
}

func (p *phase) completed() int {
	n := 0
	for _, v := range p.lat {
		n += len(v)
	}
	return n
}

// medianMs is the geometric mean over operation kinds of each kind's
// median latency: the plain median when a workload has one kind, and a
// figure no single slow kind decides when it has several.
func (p *phase) medianMs() float64 {
	meds := make([]float64, 0, len(p.kinds))
	for _, k := range p.kinds {
		meds = append(meds, ms(float64(median(p.lat[k]))))
	}
	return geomean(meds)
}

// tailMs is the geometric mean over operation kinds of each kind's
// q-quantile latency. Each workload fixes q (outcome.tailQ): the highest
// percentile that has ten or more samples beyond it in every kind and
// still repeats from run to run.
func (p *phase) tailMs(q float64) float64 {
	tails := make([]float64, 0, len(p.kinds))
	for _, k := range p.kinds {
		tails = append(tails, ms(float64(quantile(sortedCopy(p.lat[k]), q))))
	}
	return geomean(tails)
}

func (p *phase) opsPerS() float64 { return float64(p.completed()) / p.elapsed.Seconds() }

// outcome is what a workload run reports back to main.
type outcome struct {
	tailQ             float64 // quantile tail_ms reports
	attempted, failed int
	setup             []time.Duration
	run               *phase             // untraced timed phase
	traced            *phase             // traced phase (trace runs only)
	layer             map[string]float64 // per-layer values (trace runs only)
	notes             []string           // human-readable report lines
	violations        []string
}

func (o *outcome) violate(format string, args ...any) {
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64) {
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer[name] = v
}

// timedSetup builds a workload's state setupRuns times, timing each
// build, tears down all but the last, and returns the last.
func timedSetup[T any](o *outcome, build func() (T, error), teardown func(T)) (T, error) {
	var st T
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0))
		if i < setupRuns-1 {
			teardown(s)
		} else {
			st = s
		}
	}
	return st, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func setupMs(ds []time.Duration) []string {
	v := make([]string, len(ds))
	for i, d := range ds {
		v[i] = fmt.Sprintf("%.1f", ms(float64(d.Nanoseconds())))
	}
	return v
}

func e2eValues(o *outcome, p *phase) map[string]float64 {
	setup := make([]int64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Nanoseconds()
	}
	return map[string]float64{
		"setup_s":     float64(median(setup)) / 1e9,
		"peak_rss_mb": peakRSSMB(),
		"median_ms":   p.medianMs(),
		"tail_ms":     p.tailMs(o.tailQ),
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "repeat" {
		os.Exit(repeatMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.workload, "workload", "", "workload to run: serve-small, serve-memhog, spec-batch, coldstart")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed run in seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", o.workload)
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(hostLine())
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Printf("set-up: %d builds, ms each: %v\n", len(out.setup), setupMs(out.setup))
	fmt.Printf("timed phase: %d operations in %.2f s, %.1f ops/s; tail_ms is the p%g latency\n",
		out.run.completed(), out.run.elapsed.Seconds(), out.run.opsPerS(), 100*out.tailQ)
	for _, k := range out.run.kinds {
		s := sortedCopy(out.run.lat[k])
		fmt.Printf("  %-20s n=%-7d p50=%.3f p90=%.3f p95=%.3f p99=%.3f p99.9=%.3f max=%.3f ms\n", k, len(s),
			ms(float64(quantile(s, 0.5))), ms(float64(quantile(s, 0.9))), ms(float64(quantile(s, 0.95))),
			ms(float64(quantile(s, 0.99))), ms(float64(quantile(s, 0.999))), ms(float64(s[len(s)-1])))
	}
	res := result{
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	// A traced run's result line holds the per-layer metrics only; the
	// end-to-end values of its untraced half are printed above it.
	e2e := e2eValues(out, out.run)
	report := res.Metrics
	if o.trace {
		report = map[string]metric{}
		traced := e2eValues(out, out.traced)
		for _, m := range []string{"median_ms", "tail_ms"} {
			out.set("trace.overhead_pct."+m, 100*(traced[m]-e2e[m])/e2e[m])
		}
		known := map[string]bool{}
		for _, m := range spec.PerLayer {
			known[m.Name] = true
			res.Metrics[m.Name] = metric{out.layer[m.Name], m.Unit}
		}
		for name := range out.layer {
			if !known[name] {
				out.violate("per-layer metric %q is not listed in %s", name, benchFile)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		v, ok := e2e[m.Name]
		if !ok {
			out.violate("end-to-end metric %q of %s is not measured", m.Name, benchFile)
		}
		report[m.Name] = metric{v, m.Unit}
	}
	if o.trace {
		printMetrics("end-to-end metrics of the untraced half:", report)
	}
	res.Correct = len(out.violations) == 0
	printMetrics("metrics:", res.Metrics)
	fmt.Printf("operations: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, v := range out.violations {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(title string, vals map[string]metric) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([][2]string, 0, len(names))
	for _, n := range names {
		m := vals[n]
		v := fmt.Sprintf("%.4f", m.Value)
		if math.Abs(m.Value) >= 1e5 {
			v = fmt.Sprintf("%.0f", m.Value)
		}
		rows = append(rows, [2]string{n, v + " " + m.Unit})
	}
	table(os.Stdout, title, rows)
}
