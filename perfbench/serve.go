package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serveWork describes one serving workload: well-behaved NetServlet
// tenants driven in a closed loop, and optionally a NetHog attacker on a
// connection of its own.
type serveWork struct {
	tenants   int // NetServlet tenants
	work      int // work units per request
	bodyBytes int
	conns     int  // closed-loop connections over the tenants
	hog       bool // add the NetHog tenant and its schedule
	tailQ     float64
}

const (
	poolBodies = 32 // seeded bodies per tenant per connection, used in turn
	warmRounds = 200
	// hogInterval paces the attacker: one request per interval, a fixed
	// number per phase however fast the server is, so the number of kills
	// per run does not depend on the host.
	hogInterval = 5 * time.Millisecond
	hogBody     = 64
	hogRoute    = "/hog"
)

// serveSmall: four NetServlet tenants, 64-byte bodies, 100 work units, one
// engine shard, a closed loop over two keep-alive connections. Guest work
// is small, so the serving plumbing and the host allocator dominate.
func serveSmall(o options) (*outcome, error) {
	return runServe(o, serveWork{tenants: 4, work: 100, bodyBytes: 64, conns: 2, tailQ: 0.999})
}

// serveMemhog: three NetServlet tenants with 4 KiB bodies and 2000 work
// units on one connection, beside a NetHog (1 MiB memlimit, shedding off,
// restarts forked from its zygote) driven on a fixed schedule on a second
// connection. Hog traffic is the attacker and is not counted. Its tail is
// p90: above that the neighbours' latency is set by which hog requests,
// kills and collections they happen to meet, and p99 and p99.9 swung by a
// factor of two to three between runs on the same host.
func serveMemhog(o options) (*outcome, error) {
	return runServe(o, serveWork{tenants: 3, work: 2000, bodyBytes: 4096, conns: 1, hog: true, tailQ: 0.9})
}

// route is one tenant as one connection drives it: serialized requests and
// the model's answer to each.
type route struct {
	path   string
	bodies [][]byte
	reqs   [][]byte
	want   []string
}

func newRoute(path string, bodies [][]byte, answer func([]byte) int64) *route {
	r := &route{path: path, bodies: bodies}
	for _, b := range bodies {
		r.reqs = append(r.reqs, request(path, b))
		r.want = append(r.want, reply(path[1:], answer(b)))
	}
	return r
}

type serveState struct {
	w      serveWork
	srv    *serve.Server
	vm     *core.VM
	conns  []*client
	routes [][]*route // per connection, one per tenant
	hogC   *client
	hog    *route
	seq    []int // next body index per connection
}

func runServe(o options, w serveWork) (*outcome, error) {
	out := &outcome{tailQ: w.tailQ}
	rng := rand.New(rand.NewSource(o.seed))
	routes := make([][]*route, w.conns)
	for c := range routes {
		for t := 0; t < w.tenants; t++ {
			routes[c] = append(routes[c], newRoute(fmt.Sprintf("/s%d", t), bodies(rng, poolBodies, w.bodyBytes),
				func(b []byte) int64 { return servletModel(b, w.work) }))
		}
	}
	var hog *route
	if w.hog {
		hog = newRoute(hogRoute, bodies(rng, poolBodies, hogBody), hogModel)
	}
	st, err := timedSetup(out, func() (*serveState, error) { return newServeState(w, routes, hog) }, (*serveState).close)
	if err != nil {
		return nil, err
	}
	dur := o.phaseDur()
	var hs hogStats
	out.run, hs = st.concurrent(out, dur, st.loop)
	if o.trace {
		st.tracedRun(out, dur)
	} else if w.hog {
		out.note("hog: %d requests, %d answered 200, %d killed (502); answers per incarnation %v",
			hs.sent, hs.ok, hs.kills, hs.perLife)
	}
	st.close()
	if err := auditVMs(st.srv.VMs()...); err != nil {
		out.violate("%v", err)
	}
	return out, nil
}

// newServeState starts a one-shard jit-opt serving plane, connects, and
// warms every tenant, the hog through one full kill and restart.
func newServeState(w serveWork, routes [][]*route, hog *route) (*serveState, error) {
	var tenants []serve.TenantConfig
	for _, r := range routes[0] {
		tenants = append(tenants, serve.TenantConfig{Route: r.path, WorkUnits: w.work})
	}
	if w.hog {
		tenants = append(tenants, serve.TenantConfig{
			Route: hogRoute, Hog: true, MemKB: 1024, ShedFraction: -1, Template: true,
		})
	}
	srv, err := serve.NewSharded(core.Config{Engine: core.EngineJITOpt}, serve.Config{Shards: 1}, tenants)
	if err != nil {
		return nil, err
	}
	st := &serveState{w: w, srv: srv, vm: srv.VMs()[0], routes: routes, hog: hog, seq: make([]int, w.conns)}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	for range routes {
		c, err := dial(addr)
		if err != nil {
			st.close()
			return nil, err
		}
		st.conns = append(st.conns, c)
	}
	if w.hog {
		if st.hogC, err = dial(addr); err != nil {
			st.close()
			return nil, err
		}
	}
	for i, c := range st.conns {
		for n := 0; n < warmRounds; n++ {
			for _, r := range routes[i] {
				k := n % len(r.reqs)
				status, body, err := c.do(r.reqs[k])
				if err != nil || status != http.StatusOK || string(body) != r.want[k] {
					st.close()
					return nil, fmt.Errorf("warm-up %s: status %d body %q err %v", r.path, status, body, err)
				}
			}
		}
	}
	if w.hog {
		for n := 0; ; n++ {
			status, body, err := st.hogC.do(hog.reqs[n%len(hog.reqs)])
			if err != nil || (status != http.StatusOK && status != http.StatusBadGateway) {
				st.close()
				return nil, fmt.Errorf("warm-up %s: status %d body %q err %v", hogRoute, status, body, err)
			}
			if status == http.StatusBadGateway {
				break
			}
		}
	}
	return st, nil
}

func (st *serveState) close() {
	for _, c := range st.conns {
		c.close()
	}
	if st.hogC != nil {
		st.hogC.close()
	}
	_ = st.srv.Close()
}

// loopResult is what one closed-loop connection saw.
type loopResult struct {
	p                 *phase
	attempted, failed int
	violations        []string
}

// loop drives one connection in whole rounds, one request per tenant per
// round, until the deadline.
func (st *serveState) loop(i int, deadline time.Time) loopResult {
	res := loopResult{p: newPhase()}
	c := st.conns[i]
	for time.Now().Before(deadline) {
		k := st.seq[i] % poolBodies
		st.seq[i]++
		for _, r := range st.routes[i] {
			res.attempted++
			t0 := time.Now()
			status, body, err := c.do(r.reqs[k])
			d := time.Since(t0)
			if err != nil {
				res.failed++
				res.violations = append(res.violations, fmt.Sprintf("%s: transport error: %v", r.path, err))
				return res
			}
			if status != http.StatusOK {
				res.failed++
				continue
			}
			if string(body) != r.want[k] {
				res.violations = append(res.violations, fmt.Sprintf("%s: answered %q, model %q", r.path, body, r.want[k]))
			}
			res.p.observe("request", d)
		}
	}
	return res
}

// doLoop is loop through Server.Do: the same engine path with no socket,
// HTTP or client in it.
func (st *serveState) doLoop(i int, deadline time.Time) loopResult {
	res := loopResult{p: newPhase()}
	for time.Now().Before(deadline) {
		k := st.seq[i] % poolBodies
		st.seq[i]++
		for _, r := range st.routes[i] {
			res.attempted++
			t0 := time.Now()
			status, body := st.srv.Do(r.path, r.bodies[k])
			d := time.Since(t0)
			if status != http.StatusOK {
				res.failed++
				continue
			}
			if body != r.want[k] {
				res.violations = append(res.violations, fmt.Sprintf("%s via Do: answered %q, model %q", r.path, body, r.want[k]))
			}
			res.p.observe("request", d)
		}
	}
	return res
}

// hogStats is what the attacker's schedule produced.
type hogStats struct {
	sent, ok, kills int
	perLife         []int // 200s answered by each incarnation that died
	violations      []string
}

// hogLoop sends n hog requests, request k due at start + k*hogInterval
// (late ones go at once). Every request must get exactly one answer: 200
// with the model's result, or 502 when it is the request that pushed the
// hog over its memlimit.
func (st *serveState) hogLoop(start time.Time, n int) hogStats {
	var hs hogStats
	life := 0
	for k := 0; k < n; k++ {
		if d := time.Until(start.Add(time.Duration(k) * hogInterval)); d > 0 {
			time.Sleep(d)
		}
		i := k % len(st.hog.reqs)
		status, body, err := st.hogC.do(st.hog.reqs[i])
		hs.sent++
		switch {
		case err != nil:
			hs.violations = append(hs.violations, fmt.Sprintf("hog: transport error: %v", err))
			return hs
		case status == http.StatusOK && string(body) == st.hog.want[i]:
			hs.ok++
			life++
		case status == http.StatusBadGateway:
			hs.kills++
			hs.perLife = append(hs.perLife, life)
			life = 0
		default:
			hs.violations = append(hs.violations, fmt.Sprintf("hog: status %d body %q, want 200 %q or 502", status, body, st.hog.want[i]))
		}
	}
	return hs
}

// concurrent runs loop on every connection, and the hog schedule, for dur.
func (st *serveState) concurrent(out *outcome, dur time.Duration, loop func(int, time.Time) loopResult) (*phase, hogStats) {
	start := time.Now()
	deadline := start.Add(dur)
	results := make([]loopResult, len(st.conns))
	var hs hogStats
	var wg sync.WaitGroup
	for i := range st.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = loop(i, deadline)
		}(i)
	}
	if st.hogC != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs = st.hogLoop(start, int(dur/hogInterval))
		}()
	}
	wg.Wait()
	p := newPhase()
	p.elapsed = time.Since(start)
	for _, r := range results {
		p.merge(r.p)
		out.attempted += r.attempted
		out.failed += r.failed
		for _, v := range r.violations {
			out.violate("%s", v)
		}
	}
	for _, v := range hs.violations {
		out.violate("%s", v)
	}
	return p, hs
}

// tracedRun measures the same workload with the serving plane's span
// ledger on: three quarters of the phase over HTTP, draining every span,
// then a quarter through Server.Do at the same concurrency. The per-layer
// table splits the client round trip into the span phases, the engine's
// unphased gap, and the part outside the server's ledger.
func (st *serveState) tracedRun(out *outcome, dur time.Duration) {
	rec := st.vm.Tel.Spans
	rec.SetEnabled(true)
	defer rec.SetEnabled(false)
	drain := newSpanDrain(rec)
	h0, c0 := readHost(), readCounters(st.vm)
	httpDur := dur * 3 / 4
	p, hs := st.concurrent(out, httpDur, st.loop)
	h1, c1 := readHost(), readCounters(st.vm)
	spans := drain.stop()
	out.traced = p
	doP, _ := st.concurrent(out, dur-httpDur, st.doLoop)

	counted := map[string]bool{}
	for _, r := range st.routes[0] {
		counted[r.path] = true
	}
	var accept, queue, marshal, exec, total []int64
	var cycles uint64
	for _, sp := range spans {
		if !counted[sp.Route] || sp.Status != http.StatusOK {
			continue
		}
		accept = append(accept, sp.AcceptNs)
		queue = append(queue, sp.QueueNs)
		marshal = append(marshal, sp.MarshalNs)
		exec = append(exec, sp.ExecNs)
		total = append(total, sp.TotalNs)
		cycles += sp.ExecCycles
	}
	n := p.completed()
	dropped := n - len(total)
	rtt := mean(p.lat["request"])
	do := mean(doP.lat["request"])
	phases := []struct {
		name string
		v    []int64
	}{{"serve.accept_us", accept}, {"serve.queue_us", queue}, {"serve.marshal_us", marshal}, {"serve.exec_us", exec}}
	rows := [][2]string{}
	var phaseSum float64
	for _, ph := range phases {
		m := mean(ph.v)
		phaseSum += m
		out.set(ph.name, us(m))
		rows = append(rows, [2]string{ph.name, fmt.Sprintf("mean %9.1f us  p50 %9.1f us", us(m), us(float64(median(ph.v))))})
	}
	tot := mean(total)
	out.set("serve.gap_us", us(tot-phaseSum))
	out.set("serve.total_us", us(tot))
	out.set("serve.unattributed_us", us(rtt-tot))
	out.set("client.rtt_us", us(rtt))
	out.set("serve.do_us", us(do))
	out.set("serve.http_us", us(rtt-do))
	out.set("serve.hog_kills", float64(hs.kills))
	out.set("trace.spans_dropped", float64(dropped))
	out.set("interp.kcycles_per_op.jit-opt", float64(cycles)/1000/float64(len(total)))
	out.set("interp.ns_per_kcycle.jit-opt", 1000*mean(exec)*float64(len(exec))/float64(cycles))
	rows = append(rows,
		[2]string{"serve.gap_us", fmt.Sprintf("mean %9.1f us  (span total minus its phases)", us(tot-phaseSum))},
		[2]string{"serve.total_us", fmt.Sprintf("mean %9.1f us  p50 %9.1f us", us(tot), us(float64(median(total))))},
		[2]string{"serve.unattributed_us", fmt.Sprintf("mean %9.1f us  (client round trip minus span total)", us(rtt-tot))},
		[2]string{"client.rtt_us", fmt.Sprintf("mean %9.1f us  p50 %9.1f us", us(rtt), us(float64(median(p.lat["request"]))))},
		[2]string{"serve.do_us", fmt.Sprintf("mean %9.1f us  p50 %9.1f us  (Server.Do, no socket)", us(do), us(float64(median(doP.lat["request"]))))},
		[2]string{"serve.http_us", fmt.Sprintf("mean %9.1f us  (client round trip minus Server.Do)", us(rtt-do))},
		[2]string{"tail", fmt.Sprintf("client p%g %9.1f us, span total p%g %9.1f us", 100*out.tailQ,
			us(float64(quantile(sortedCopy(p.lat["request"]), out.tailQ))), 100*out.tailQ, us(float64(quantile(sortedCopy(total), out.tailQ))))},
		[2]string{"spans", fmt.Sprintf("%d requests, %d spans kept, %d dropped", n, len(total), dropped)},
	)
	if st.w.hog {
		rows = append(rows, [2]string{"hog", fmt.Sprintf("%d requests, %d answered 200, %d killed (502); answers per incarnation %v", hs.sent, hs.ok, hs.kills, hs.perLife)})
	}
	table(os.Stdout, "serving ledger, mean per counted request (means add up; p50s do not):", rows)
	if dropped != 0 {
		out.violate("traced run lost %d of %d spans", dropped, n)
	}
	c := c1.sub(c0)
	layerCounters(out, c, float64(n))
	hostLayer(out, h1, h0, float64(n))
	out.set("heap.fork_bytes", ratio(float64(c.forkBytes), float64(c.forks)))
}

// spanDrain copies every span out of the recorder's ring while a phase
// runs, so none is overwritten before it is read. Span ids are unique per
// recorder, which makes repeated snapshots safe to merge.
type spanDrain struct {
	rec   *telemetry.SpanRecorder
	seen  map[uint64]bool
	spans []telemetry.Span
	quit  chan struct{}
	done  chan struct{}
}

// drainEvery keeps the ring's 4096 slots far from full: at 15k requests
// per second, the rate serve-small reaches on two cores, a poll finds
// about 750 new spans.
const drainEvery = 50 * time.Millisecond

func newSpanDrain(rec *telemetry.SpanRecorder) *spanDrain {
	d := &spanDrain{rec: rec, seen: map[uint64]bool{}, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		t := time.NewTicker(drainEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				d.poll()
			case <-d.quit:
				d.poll()
				return
			}
		}
	}()
	return d
}

func (d *spanDrain) poll() {
	for _, sp := range d.rec.Snapshot() {
		if !d.seen[sp.ID] {
			d.seen[sp.ID] = true
			d.spans = append(d.spans, sp)
		}
	}
}

// stop takes a last snapshot and returns every span seen.
func (d *spanDrain) stop() []telemetry.Span {
	close(d.quit)
	<-d.done
	return d.spans
}
