package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/spec"
)

// specEngines are the engines Figure 3's KaffeOS bars run on, each with
// the default NoHeapPointer write barrier.
var specEngines = []core.EngineKind{core.EngineInterp, core.EngineJIT, core.EngineJITOpt}

type specJob struct {
	w   *spec.Workload
	mod *bytecode.Module
	eng core.EngineKind
}

func (j specJob) kind() string { return j.w.Name + "." + string(j.eng) }

// specRecord is what one program run leaves behind for the checks and the
// per-layer report.
type specRecord struct {
	cycles, barriers uint64
	run              time.Duration
	c                counters
}

// specBatch runs each SPEC-shaped program in a fresh VM, as spec.Run
// does, on every engine. One operation is one program run; a round runs
// all 21 (program, engine) pairs in an order drawn from the seed. The
// timed latency is the vm.Run wall time, the figure Figure 3 plots.
func specBatch(o options) (*outcome, error) {
	// A run holds three or four runs of each program, too few for any
	// tail, so tail_ms here is the median again.
	out := &outcome{tailQ: 0.5}
	jobs, err := timedSetup(out, func() ([]specJob, error) {
		var jobs []specJob
		for _, w := range spec.All() {
			mod := w.Module()
			for _, eng := range specEngines {
				jobs = append(jobs, specJob{w: w, mod: mod, eng: eng})
			}
		}
		// Warm each engine once on the shortest program (the first job
		// per engine is compress), so no timed run pays first-use costs.
		for _, j := range jobs[:len(specEngines)] {
			if _, err := runSpec(j, nil); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", j.kind(), err)
			}
		}
		return jobs, nil
	}, func([]specJob) {})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	seen := map[string]specRecord{}

	runPhase := func(l *ledger) (*phase, map[string][]specRecord) {
		p := newPhase()
		recs := map[string][]specRecord{}
		start := time.Now()
		// Whole rounds only, and at least two, so every run repeats each
		// program and the cycle-count check always has a pair to compare.
		for round := 0; round < 2 || time.Since(start) < o.phaseDur(); round++ {
			for _, i := range rng.Perm(len(jobs)) {
				j := jobs[i]
				out.attempted++
				rec, err := runSpec(j, l)
				if err != nil {
					out.failed++
					out.violate("%s: %v", j.kind(), err)
					continue
				}
				p.observe(j.kind(), rec.run)
				recs[j.kind()] = append(recs[j.kind()], rec)
				checkSpec(out, j, rec, seen)
			}
		}
		p.elapsed = time.Since(start)
		return p, recs
	}

	out.run, _ = runPhase(nil)
	if !o.trace {
		return out, nil
	}
	l := newLedger()
	h0 := readHost()
	t0 := time.Now()
	traced, recs := runPhase(l)
	wall := time.Since(t0)
	h1 := readHost()
	out.traced = traced
	reportSpec(out, traced, recs, h1, h0)
	l.print(os.Stdout, "spec-batch ledger", traced.completed(), wall)
	return out, nil
}

// runSpec is one program run: a fresh VM, one process, the program's
// module, one thread, run to completion.
func runSpec(j specJob, l *ledger) (specRecord, error) {
	var rec specRecord
	t := time.Now()
	lap := func(layer string) {
		now := time.Now()
		l.add(layer, now.Sub(t))
		t = now
	}
	vm, err := core.NewVM(core.Config{Engine: j.eng})
	if err != nil {
		return rec, err
	}
	lap("core.newvm")
	p, err := vm.NewProcess(j.w.Name, core.ProcessOptions{MemLimit: 64 << 20})
	if err != nil {
		return rec, err
	}
	lap("core.newprocess")
	if err := p.Load(j.mod); err != nil {
		return rec, err
	}
	lap("core.load")
	th, err := p.Spawn(j.w.MainClass, "run()I")
	if err != nil {
		return rec, err
	}
	lap("core.spawn")
	b0 := vm.Stats.Executed.Load()
	r0 := time.Now()
	t = r0
	if err := vm.Run(0); err != nil {
		return rec, err
	}
	rec.run = time.Since(r0)
	lap("interp.run")
	rec.barriers = vm.Stats.Executed.Load() - b0
	rec.cycles = th.Cycles
	if th.State != interp.StateFinished {
		return rec, fmt.Errorf("thread died: %v (uncaught %v)", th.Err, th.Uncaught)
	}
	if th.Result.I != j.w.Checksum {
		return rec, fmt.Errorf("checksum %d, want %d", th.Result.I, j.w.Checksum)
	}
	if p.State() != core.ProcReclaimed {
		return rec, fmt.Errorf("process not reclaimed after its last thread exited (state %s)", p.State())
	}
	if l != nil {
		rec.c = readCounters(vm).sub(counters{}) // a fresh VM's counters start at 0
	}
	err = auditVMs(vm)
	lap("core.audit")
	return rec, err
}

// checkSpec holds each program to the invariants across runs: virtual
// cycles repeat exactly on one engine, and every engine executes the same
// number of write barriers for the same program.
func checkSpec(out *outcome, j specJob, rec specRecord, seen map[string]specRecord) {
	if prev, ok := seen[j.kind()]; ok && prev.cycles != rec.cycles {
		out.violate("%s: %d virtual cycles, earlier run %d", j.kind(), rec.cycles, prev.cycles)
	}
	seen[j.kind()] = rec
	if prev, ok := seen[j.w.Name]; ok && prev.barriers != rec.barriers {
		out.violate("%s: %d write barriers on %s, %d on another engine", j.w.Name, rec.barriers, j.eng, prev.barriers)
	}
	seen[j.w.Name] = rec
}

func reportSpec(out *outcome, p *phase, recs map[string][]specRecord, h1, h0 hostSample) {
	n := float64(p.completed())
	var tot counters
	for _, eng := range specEngines {
		var runNs, cycles, runs float64
		var meds []float64
		for _, w := range spec.All() {
			k := w.Name + "." + string(eng)
			med := ms(float64(median(p.lat[k])))
			meds = append(meds, med)
			out.set(fmt.Sprintf("spec.%s_ms.%s", w.Name, eng), med)
			for _, r := range recs[k] {
				runs++
				runNs += float64(r.run.Nanoseconds())
				cycles += float64(r.cycles)
				tot.gcs += r.c.gcs
				tot.gcCycles += r.c.gcCycles
				tot.leaseHits += r.c.leaseHits
				tot.leaseMisses += r.c.leaseMisses
				tot.barrier += r.barriers
				tot.dispatches += r.c.dispatches
			}
		}
		out.set("spec.geomean_ms."+string(eng), geomean(meds))
		out.set("interp.ns_per_kcycle."+string(eng), 1000*runNs/cycles)
		out.set("interp.kcycles_per_op."+string(eng), cycles/1000/runs)
	}
	layerCounters(out, tot, n)
	hostLayer(out, h1, h0, n)
}

// layerCounters sets the heap, memlimit, barrier and scheduler metrics
// from counter deltas over n operations.
func layerCounters(out *outcome, c counters, n float64) {
	out.set("heap.gc_per_kop", 1000*float64(c.gcs)/n)
	out.set("heap.gc_kcycles_per_op", float64(c.gcCycles)/1000/n)
	out.set("memlimit.lease_hit_ratio", ratio(float64(c.leaseHits), float64(c.leaseHits+c.leaseMisses)))
	out.set("barrier.stores_per_op", float64(c.barrier)/n)
	out.set("sched.dispatches_per_op", float64(c.dispatches)/n)
	out.note("counters: gc=%d gc_cycles=%d lease_hits=%d lease_misses=%d barriers=%d dispatches=%d over %.0f ops; %d process scopes vanished mid-phase",
		c.gcs, c.gcCycles, c.leaseHits, c.leaseMisses, c.barrier, c.dispatches, n, c.vanished)
}

// hostLayer sets the Go runtime's allocation and GC cost per operation.
func hostLayer(out *outcome, h1, h0 hostSample, n float64) {
	out.set("host.allocs_per_op", float64(h1.allocs-h0.allocs)/n)
	out.set("host.alloc_bytes_per_op", float64(h1.bytes-h0.bytes)/n)
	out.set("host.gc_cpu_us_per_op", 1e6*(h1.gcCPU-h0.gcCPU)/n)
}
