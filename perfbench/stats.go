package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []int64) int64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

func geomean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostLine describes the machine the figures come from.
func hostLine() string {
	h := telemetry.Host()
	return fmt.Sprintf("host: cores=%d gomaxprocs=%d go=%s %s/%s",
		h.Cores, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH)
}

// hostSample reads the Go runtime's allocation and GC CPU counters.
type hostSample struct {
	allocs, bytes uint64
	gcCPU         float64 // seconds
}

var hostMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readHost() hostSample {
	s := make([]metrics.Sample, len(hostMetrics))
	copy(s, hostMetrics)
	metrics.Read(s)
	out := hostSample{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.bytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[2].Value.Float64()
	}
	return out
}

// counters holds the VM telemetry counters the per-layer metrics are
// built from. The kernel-scope counters and vm.Stats only grow. gc.count,
// gc.cycles and sched.dispatches live in per-process scopes only, so they
// are kept per scope and differenced scope by scope: a scope the registry
// dropped between two readings (a reclaimed process's, say) loses only
// its own increments and is counted in vanished, instead of shrinking a
// sum and wrapping the delta.
type counters struct {
	dispatches, gcs, gcCycles uint64
	leaseHits, leaseMisses    uint64
	forks, forkBytes          uint64
	codeHits, codeMisses      uint64
	barrier                   uint64
	vanished                  int
	scopes                    map[scopeKey]scopeCounts
}

type scopeKey struct {
	vm  int
	pid int32
}

type scopeCounts struct{ gcs, gcCycles, dispatches uint64 }

func readCounters(vms ...*core.VM) counters {
	c := counters{scopes: map[scopeKey]scopeCounts{}}
	for i, vm := range vms {
		k := vm.Tel.Reg.Kernel()
		c.leaseHits += k.Counter(telemetry.MGCFastHits).Value()
		c.leaseMisses += k.Counter(telemetry.MGCFastMisses).Value()
		c.forks += k.Counter(telemetry.MForks).Value()
		c.forkBytes += k.Counter(telemetry.MForkBytes).Value()
		c.codeHits += k.Counter(telemetry.MCodeHits).Value()
		c.codeMisses += k.Counter(telemetry.MCodeMisses).Value()
		c.barrier += vm.Stats.Executed.Load()
		for _, s := range append(vm.Tel.Reg.Procs(), k) {
			c.scopes[scopeKey{i, s.Pid}] = scopeCounts{
				gcs:        s.Counter(telemetry.MGCCount).Value(),
				gcCycles:   s.Counter(telemetry.MGCCycles).Value(),
				dispatches: s.Counter(telemetry.MDispatches).Value(),
			}
		}
	}
	return c
}

// sub returns the counts from o to c, c read after o.
func (c counters) sub(o counters) counters {
	d := counters{
		leaseHits: c.leaseHits - o.leaseHits, leaseMisses: c.leaseMisses - o.leaseMisses,
		forks: c.forks - o.forks, forkBytes: c.forkBytes - o.forkBytes,
		codeHits: c.codeHits - o.codeHits, codeMisses: c.codeMisses - o.codeMisses,
		barrier: c.barrier - o.barrier,
	}
	for key, now := range c.scopes {
		then := o.scopes[key] // zero for a scope created since o
		if now.gcs < then.gcs || now.gcCycles < then.gcCycles || now.dispatches < then.dispatches {
			then = scopeCounts{} // the pid's scope was dropped and made anew
		}
		d.gcs += now.gcs - then.gcs
		d.gcCycles += now.gcCycles - then.gcCycles
		d.dispatches += now.dispatches - then.dispatches
	}
	for key := range o.scopes {
		if _, ok := c.scopes[key]; !ok {
			d.vanished++
		}
	}
	return d
}

// auditVMs checks the end-of-run invariant every workload must hold:
// every process created was reclaimed, and the full auditor, reference
// graph walk included, finds each VM sound.
func auditVMs(vms ...*core.VM) error {
	for i, vm := range vms {
		k := vm.Tel.Reg.Kernel()
		created, reclaimed := k.Counter(telemetry.MProcsCreated).Value(), k.Counter(telemetry.MProcsReclaimed).Value()
		if created != reclaimed {
			return fmt.Errorf("vm %d: proc.created=%d but proc.reclaimed=%d", i, created, reclaimed)
		}
		if rep := vm.Audit(true); !rep.OK() {
			return fmt.Errorf("vm %d: audit failed:\n%s", i, rep)
		}
	}
	return nil
}

// ledger accumulates per-layer self time in the traced run: the benchmark
// times each call it makes into a layer's public function. Calls do not
// nest, so each span's duration is its self time.
type ledger struct {
	order []string
	ns    map[string]int64
}

func newLedger() *ledger { return &ledger{ns: map[string]int64{}} }

func (l *ledger) add(layer string, d time.Duration) {
	if l == nil {
		return
	}
	if _, ok := l.ns[layer]; !ok {
		l.order = append(l.order, layer)
	}
	l.ns[layer] += d.Nanoseconds()
}

// print writes the self-time table per operation; total is the wall time
// of the traced operations, and whatever the spans do not cover is shown
// as the unattributed row.
func (l *ledger) print(w *os.File, title string, ops int, total time.Duration) {
	fmt.Fprintf(w, "%s: self time per operation over %d operations\n", title, ops)
	var covered int64
	for _, name := range l.order {
		covered += l.ns[name]
	}
	row := func(name string, ns int64) {
		fmt.Fprintf(w, "  %-28s %12.1f us %6.1f%%\n", name, us(float64(ns)/float64(ops)), 100*float64(ns)/float64(total.Nanoseconds()))
	}
	for _, name := range l.order {
		row(name, l.ns[name])
	}
	row("unattributed", total.Nanoseconds()-covered)
	row("total", total.Nanoseconds())
}

// table renders rows of name/value pairs for the human-readable report.
func table(w *os.File, title string, rows [][2]string) {
	fmt.Fprintln(w, title)
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %s%s  %s\n", r[0], strings.Repeat(" ", width-len(r[0])), r[1])
	}
}
