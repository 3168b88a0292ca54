package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// repeatSets is how many sets of runs repeat compares: a second set
// against the first.
const repeatSets = 2

// repeatMain runs one workload -runs times per set, each run in its own
// process with its own seed, prints every end-to-end metric's median,
// quartiles and spread per set, and says whether the two sets agree within
// the bounds BENCHMARK.json states: each set's spread (Q3 - Q1) / median
// within the bound (setup_s excepted), the medians apart by at most the
// bound in either direction, and the same share of failed operations in
// both sets. It exits 1 when they do not.
func repeatMain(args []string) int {
	fs := flag.NewFlagSet("perfbench repeat", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "runs per set")
	seconds := fs.Int("seconds", 10, "length of each run")
	seed := fs.Int64("seed", 1, "seed of the first run; run k uses seed+k")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench repeat:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench repeat:", err)
		return 1
	}
	type setStats struct {
		values            map[string][]float64
		attempted, failed int
	}
	var all [repeatSets]setStats
	n := *seed
	for s := range all {
		all[s].values = map[string][]float64{}
		for r := 0; r < *runs; r++ {
			res, err := runOnce(self, *workload, n, *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench repeat: set %d run %d (seed %d): %v\n", s+1, r+1, n, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "set %d run %d seed %d: attempted=%d failed=%d", s+1, r+1, n, res.Attempted, res.Failed)
			for _, m := range spec.EndToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.4f", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Fprintln(os.Stderr)
			for name, m := range res.Metrics {
				all[s].values[name] = append(all[s].values[name], m.Value)
			}
			all[s].attempted += res.Attempted
			all[s].failed += res.Failed
			n++
		}
	}
	ok := true
	fmt.Printf("workload %s: %d sets of %d runs, %d s each\n", *workload, repeatSets, *runs, *seconds)
	fmt.Printf("  %-12s %4s %12s %12s %12s %8s %6s  %s\n", "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		var first float64
		for s, st := range all {
			v := st.values[m.Name]
			if len(v) == 0 {
				fmt.Printf("  %-12s %4d missing\n", m.Name, s+1)
				ok = false
				continue
			}
			q1, med, q3 := quartiles(v)
			spread := (q3 - q1) / med
			verdict := "ok"
			switch {
			case spread <= m.Bound:
			case m.Name == "setup_s":
				// Set-up lasts 0.1-0.3 s, so the host's speed drift over a
				// second or two moves it between runs far more than it moves
				// a 20 s timed phase. Its spread is shown but not gated; its
				// median shift between the sets is gated like any metric's.
				verdict = "spread above bound, not gated"
			default:
				verdict, ok = "SPREAD ABOVE BOUND", false
			}
			if s == 0 {
				first = med
			} else if d := (med - first) / first; math.Abs(d) > m.Bound {
				verdict, ok = fmt.Sprintf("MEDIAN %+.1f%% FROM SET 1", 100*d), false
			}
			fmt.Printf("  %-12s %4d %12.4f %12.4f %12.4f %7.2f%% %5.0f%%  %s\n", m.Name, s+1, q1, med, q3, 100*spread, 100*m.Bound, verdict)
		}
	}
	for s, st := range all {
		fmt.Printf("  set %d: %d of %d operations failed\n", s+1, st.failed, st.attempted)
	}
	// The shares failed/attempted must be equal exactly: compare them
	// cross-multiplied, in integers.
	if a, b := all[0], all[1]; a.failed*b.attempted != b.failed*a.attempted {
		fmt.Println("  the sets' shares of failed operations differ")
		ok = false
	}
	if ok {
		fmt.Println("verdict: the sets agree within the bounds of", benchFile)
		return 0
	}
	fmt.Println("verdict: the sets DO NOT agree within the bounds of", benchFile)
	return 1
}

// runOnce runs the benchmark binary once and parses its result line.
func runOnce(self, workload string, seed int64, seconds int) (result, error) {
	var res result
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line (exit: %v): %w", runErr, err)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("run failed its checks (exit: %v)", runErr)
	}
	return res, nil
}
