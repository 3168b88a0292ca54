package main

import (
	"math/rand"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/jserv"
)

var allEngines = []core.EngineKind{core.EngineInterp, core.EngineInterpSpill, core.EngineJIT, core.EngineJITOpt}

// runHandle loads mod into a fresh process and runs cls.handle on body.
func runHandle(t *testing.T, eng core.EngineKind, mod *bytecode.Module, cls string, body []byte, work int) int64 {
	t.Helper()
	vm, err := core.NewVM(core.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	p, err := vm.NewProcess("model", core.ProcessOptions{MemLimit: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(mod); err != nil {
		t.Fatal(err)
	}
	arr, err := marshalInto(p, body)
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.Spawn(cls, jserv.NetHandleKey, interp.RefSlot(arr), interp.IntSlot(int64(work)))
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.State != interp.StateFinished {
		t.Fatalf("%s on %s died: %v (uncaught %v)", cls, eng, th.Err, th.Uncaught)
	}
	return th.Result.I
}

// TestModelsMatchVM holds each reference model to the guest program it
// models, on every engine, for seeded bodies of several sizes.
func TestModelsMatchVM(t *testing.T) {
	table := warmTable()
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name  string
		mod   *bytecode.Module
		cls   string
		model func(body []byte, work int) int64
	}{
		{"NetServlet", jserv.NetServletModule(), jserv.NetServletClass, servletModel},
		{"NetHog", jserv.NetHogModule(), jserv.NetHogClass, func(b []byte, _ int) int64 { return hogModel(b) }},
		{"NetWarm", jserv.NetWarmModule(), jserv.NetWarmClass, func(b []byte, w int) int64 { return warmModel(table, b, w) }},
		{"NetWide", jserv.NetWideModule(), jserv.NetWideClass, wideModel},
	}
	for _, size := range []int{0, 5, 64, 4096} {
		body := bodies(rng, 1, size)[0]
		work := rng.Intn(3000)
		for _, c := range cases {
			want := c.model(body, work)
			for _, eng := range allEngines {
				if got := runHandle(t, eng, c.mod, c.cls, body, work); got != want {
					t.Errorf("%s on %s, %d-byte body, %d units: VM %d, model %d", c.name, eng, size, work, got, want)
				}
			}
		}
	}
}

// TestIntegerWidth pins the ISA's integer width the models assume: slots
// are 64-bit, so 65536*65536 does not wrap.
func TestIntegerWidth(t *testing.T) {
	mod := bytecode.MustAssemble(`
.class bench/Width
.method handle ([II)I static
.locals 2
.stack 2
	ldc 65536
	ldc 65536
	imul
	ireturn
.end
.end`)
	for _, eng := range allEngines {
		if got := runHandle(t, eng, mod, "bench/Width", nil, 0); got != 1<<32 {
			t.Errorf("%s: 65536*65536 = %d, want %d", eng, got, int64(1)<<32)
		}
	}
}

// TestQuartilesMatchPython checks the repeat command's quartiles against
// values from Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, med, q3)
	}
}
