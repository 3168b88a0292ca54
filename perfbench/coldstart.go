package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/jserv"
	"repro/internal/object"
)

// The four ways coldstart brings a servlet process to its first answer.
const (
	pathInit    = "init"    // fresh NetWarm: its <clinit> builds the table
	pathFork    = "fork"    // Template.Fork of a checkpointed NetWarm zygote
	pathCompile = "compile" // NetWide, JIT-compiled privately (code cache off)
	pathShared  = "shared"  // NetWide, attached from the shared code cache
)

var coldPaths = []string{pathInit, pathFork, pathCompile, pathShared}

const (
	coldWork    = 100 // work units per request
	coldBody    = 64  // request body bytes
	coldBodies  = 64  // seeded bodies, used in turn
	coldMemLim  = 8 << 20
	coldWarmups = 2 // unmeasured lifecycles per path during set-up
)

type coldState struct {
	private, cached *core.VM // jit-opt, code cache off / on
	tpl             *core.Template
	warm, wide, kpr *bytecode.Module
	bodies          [][]byte
	want            map[string][]int64 // path → expected answer per body
	checkpoint      time.Duration
}

// coldLife is what one lifecycle measured.
type coldLife struct {
	create, load, run, teardown time.Duration
	start                       time.Duration // "process needed" to first answer
	cycles                      uint64
}

// coldstart runs repeated full process lifecycles in jit-opt VMs, one per
// start path per round: create (or fork), answer one request, kill,
// reclaim. The operation latency is the whole lifecycle; the start and
// teardown parts are reported per layer.
func coldstart(o options) (*outcome, error) {
	// Each path gets several hundred lifecycles a run; p90 leaves tens
	// beyond it on every path.
	out := &outcome{tailQ: 0.9}
	rng := rand.New(rand.NewSource(o.seed))
	body := bodies(rng, coldBodies, coldBody)
	table := warmTable()
	st, err := timedSetup(out, func() (*coldState, error) { return newColdState(body, table) }, (*coldState).release)
	if err != nil {
		return nil, err
	}
	seq := 0
	runPhase := func(l *ledger) (*phase, map[string][]coldLife) {
		p := newPhase()
		lives := map[string][]coldLife{}
		start := time.Now()
		for time.Since(start) < o.phaseDur() {
			for _, path := range coldPaths {
				out.attempted++
				i := seq % len(st.bodies)
				life, got, err := st.lifecycle(path, i, l)
				if err != nil {
					out.failed++
					out.violate("%s lifecycle: %v", path, err)
					continue
				}
				if want := st.want[path][i]; got != want {
					out.violate("%s: answer %d, model %d", path, got, want)
				}
				p.observe(path, life.start+life.teardown)
				lives[path] = append(lives[path], life)
			}
			seq++
		}
		p.elapsed = time.Since(start)
		return p, lives
	}

	out.run, _ = runPhase(nil)
	if o.trace {
		l := newLedger()
		h0, c0 := readHost(), readCounters(st.private, st.cached)
		t0 := time.Now()
		traced, lives := runPhase(l)
		wall := time.Since(t0)
		h1, c1 := readHost(), readCounters(st.private, st.cached)
		out.traced = traced
		st.report(out, traced, lives, c1.sub(c0), h1, h0)
		l.print(os.Stdout, "coldstart ledger", traced.completed(), wall)
	}
	st.release()
	if err := auditVMs(st.private, st.cached); err != nil {
		out.violate("%v", err)
	}
	return out, nil
}

// newColdState builds both VMs, the checkpointed NetWarm zygote and the
// code cache's NetWide artifact, then warms every path.
func newColdState(body [][]byte, table []int64) (*coldState, error) {
	st := &coldState{
		warm: jserv.NetWarmModule(), wide: jserv.NetWideModule(), kpr: jserv.KeeperModule(),
		bodies: body, want: map[string][]int64{},
	}
	for _, b := range body {
		w := warmModel(table, b, coldWork)
		st.want[pathInit] = append(st.want[pathInit], w)
		st.want[pathFork] = append(st.want[pathFork], w)
		st.want[pathCompile] = append(st.want[pathCompile], wideModel(b, coldWork))
		st.want[pathShared] = append(st.want[pathShared], wideModel(b, coldWork))
	}
	var err error
	if st.private, err = core.NewVM(core.Config{Engine: core.EngineJITOpt}); err != nil {
		return nil, err
	}
	if st.cached, err = core.NewVM(core.Config{Engine: core.EngineJITOpt, CodeCache: true}); err != nil {
		return nil, err
	}
	zygote, err := st.private.NewProcess("zygote", core.ProcessOptions{MemLimit: coldMemLim})
	if err != nil {
		return nil, err
	}
	if err := loadAll(zygote, st.warm, st.kpr); err != nil {
		return nil, err
	}
	t0 := time.Now()
	st.tpl, err = st.private.Checkpoint(zygote, "netwarm")
	st.checkpoint = time.Since(t0)
	zygote.Kill(nil) // threadless: reclaims inline
	if err != nil {
		return nil, err
	}
	// The first NetWide load on the cached VM compiles and inserts the
	// artifact; the warm-up lifecycles after it are all cache hits.
	for w := 0; w < coldWarmups; w++ {
		for _, path := range coldPaths {
			if _, got, err := st.lifecycle(path, w, nil); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", path, err)
			} else if got != st.want[path][w] {
				return nil, fmt.Errorf("warm-up %s: answer %d, model %d", path, got, st.want[path][w])
			}
		}
	}
	return st, nil
}

func loadAll(p *core.Process, mods ...*bytecode.Module) error {
	for _, m := range mods {
		if err := p.Load(m); err != nil {
			p.Kill(nil)
			return err
		}
	}
	return nil
}

// release drops the zygote and the cache's now sharer-less artifacts, so
// the VMs hold no residue for the audit.
func (st *coldState) release() {
	_ = st.tpl.Release()
	st.cached.CodeMgr.EvictOrphans()
}

// lifecycle brings one process up by path, has it answer body i, then
// kills it and runs the VM until the process is reclaimed. The keeper
// thread (a plain, non-daemon thread here) keeps the process alive
// between its answer and the kill, as it does for a serving tenant.
func (st *coldState) lifecycle(path string, i int, l *ledger) (coldLife, int64, error) {
	var life coldLife
	vm, cls := st.private, jserv.NetWarmClass
	t0 := time.Now()
	t := t0
	lap := func(layer string) time.Duration {
		now := time.Now()
		d := now.Sub(t)
		l.add(layer, d)
		t = now
		return d
	}
	var p *core.Process
	var err error
	switch path {
	case pathFork:
		p, err = st.tpl.Fork("fork", core.ProcessOptions{MemLimit: coldMemLim})
		life.create = lap("core.fork")
	default:
		mod := st.warm
		if path != pathInit {
			mod, cls = st.wide, jserv.NetWideClass
		}
		if path == pathShared {
			vm = st.cached
		}
		if p, err = vm.NewProcess(path, core.ProcessOptions{MemLimit: coldMemLim}); err != nil {
			return life, 0, err
		}
		life.create = lap("core.newprocess")
		err = loadAll(p, mod, st.kpr)
		life.load = lap("core.load." + path)
	}
	if err != nil {
		return life, 0, err
	}
	if _, err := p.Spawn(jserv.KeeperClass, "main()V"); err != nil {
		p.Kill(nil)
		return life, 0, err
	}
	lap("core.spawn")
	arr, err := marshalInto(p, st.bodies[i])
	if err != nil {
		p.Kill(nil)
		return life, 0, err
	}
	lap("heap.marshal")
	th, err := p.Spawn(cls, jserv.NetHandleKey, interp.RefSlot(arr), interp.IntSlot(coldWork))
	if err != nil {
		p.Kill(nil)
		return life, 0, err
	}
	lap("core.spawn")
	if err := vm.RunUntil(func() bool { return !th.Alive() }); err != nil {
		return life, 0, err
	}
	life.run = lap("interp.run")
	life.start = t.Sub(t0)
	life.cycles = th.Cycles
	if th.State != interp.StateFinished {
		p.Kill(nil)
		return life, 0, fmt.Errorf("request thread died: %v (uncaught %v)", th.Err, th.Uncaught)
	}
	p.Kill(nil)
	if err := vm.RunUntil(func() bool { return p.State() == core.ProcReclaimed }); err != nil {
		return life, 0, err
	}
	life.teardown = lap("core.kill_reclaim")
	if p.State() != core.ProcReclaimed {
		return life, 0, fmt.Errorf("process %s after kill, want reclaimed", p.State())
	}
	return life, th.Result.I, nil
}

// marshalInto builds the request array in p's heap the way the serving
// plane does, using the reference layout.
func marshalInto(p *core.Process, body []byte) (arr *object.Object, err error) {
	cls, err := p.Loader.Class("[I")
	if err != nil {
		return nil, err
	}
	want := marshalModel(body)
	arr, err = p.Heap.AllocArray(cls, len(want))
	if err != nil {
		return nil, err
	}
	copy(arr.Prims, want)
	return arr, nil
}

func (st *coldState) report(out *outcome, p *phase, lives map[string][]coldLife, c counters, h1, h0 hostSample) {
	n := float64(p.completed())
	pick := func(path string, f func(coldLife) time.Duration) []int64 {
		v := make([]int64, 0, len(lives[path]))
		for _, l := range lives[path] {
			v = append(v, f(l).Nanoseconds())
		}
		return v
	}
	var created, teardown []int64
	var runNs, cycles float64
	for _, path := range coldPaths {
		out.set("core.start_ms."+path, ms(float64(median(pick(path, func(l coldLife) time.Duration { return l.start })))))
		teardown = append(teardown, pick(path, func(l coldLife) time.Duration { return l.teardown })...)
		if path != pathFork {
			created = append(created, pick(path, func(l coldLife) time.Duration { return l.create })...)
			out.set("core.load_ms."+path, ms(float64(median(pick(path, func(l coldLife) time.Duration { return l.load })))))
		}
		for _, l := range lives[path] {
			runNs += float64(l.run.Nanoseconds())
			cycles += float64(l.cycles)
		}
	}
	out.set("core.newprocess_us", us(float64(median(created))))
	out.set("core.fork_us", us(float64(median(pick(pathFork, func(l coldLife) time.Duration { return l.create })))))
	out.set("core.kill_reclaim_us", us(float64(median(teardown))))
	out.set("core.checkpoint_ms", ms(float64(st.checkpoint.Nanoseconds())))
	out.set("heap.fork_bytes", ratio(float64(c.forkBytes), float64(c.forks)))
	out.set("codecache.hit_ratio", ratio(float64(c.codeHits), float64(c.codeHits+c.codeMisses)))
	out.set("codecache.resident_bytes", float64(st.cached.CodeMgr.ResidentBytes()))
	out.set("interp.ns_per_kcycle.jit-opt", 1000*runNs/cycles)
	out.set("interp.kcycles_per_op.jit-opt", cycles/1000/n)
	out.note("coldstart: forks=%d fork_bytes=%d code_hits=%d code_misses=%d", c.forks, c.forkBytes, c.codeHits, c.codeMisses)
	layerCounters(out, c, n)
	hostLayer(out, h1, h0, n)
}
