// Command mbench is the runtime's benchmark. It runs the paper's
// applications on real TCP daemons, the multi-tenant serve tier under an
// open-loop arrival schedule, and the paper's evaluation on the simulated
// testbed, all through the runtime's public packages; it checks every
// output against a computation made apart from the runtime and prints one
// JSON result line.
//
//	bash mbench/run.sh --workload mandel-tcp --seed 1 --seconds 20 --trace 0
//	bash mbench/run.sh --steady 5 --seconds 20
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer ledger instead (see README.md). All timing is
// taken from outside the runtime: around calls into its packages, around
// the natives this benchmark registers, and through a timing wrapper
// around the core.Engine interface.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics a --trace 0 run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"op_ms_p99", "ms"},
	{"max_rate", "1/s"},
	{"heap_mb", "MB"},
}

// A run builds its workload at least minSetups times and goes on while
// the builds have taken under setupBudget, up to maxSetups; setup_s is
// the median. The last build is the one measured.
const (
	minSetups   = 9
	maxSetups   = 50
	setupBudget = time.Second
)

// outcome is what one workload's timed phase produced.
type outcome struct {
	opsMs     []float64 // latency of every successful op, in start order
	opsSteal  []float64 // the host's steal share during each of those ops
	attempted int64
	failed    int64
	// maxRate is the workload's sustained rate: the highest offered rate
	// meeting the latency limit (serve-tcp), or completed ops per second
	// (closed-loop workloads).
	maxRate float64
	// wrong is set when a check over the whole run fails (a property no
	// single op can show, such as the serve tier's visit total).
	wrong error
	// layers holds per-layer values (traced runs).
	layers map[string]float64
}

// workload is one built benchmark system. build does all set-up including
// a warm-up op; measure runs timed ops for d; layers adds the per-layer
// ledger after a traced measure; close releases everything.
type workload interface {
	measure(d time.Duration) *outcome
	layers(o *outcome)
	close()
}

type builder func(seed int64, traced bool) (workload, error)

var workloads = map[string]builder{
	"mandel-tcp": buildMandel,
	"matmul-tcp": buildMatmul,
	"serve-tcp":  buildServe,
	"paper-sim":  buildPaperSim,
}

func main() {
	name := flag.String("workload", "", "workload: mandel-tcp, matmul-tcp, serve-tcp or paper-sim")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	steady := flag.Int("steady", 0, "repeat each workload this many times (seeds 1..N) and report spreads against BENCHMARK.json bounds")
	flag.Parse()

	if *steady > 0 {
		os.Exit(steadiness(*name, *steady, *seconds))
	}
	build, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "mbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "mbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(build, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run builds the workload setupRuns times (timing each build), measures
// the last one, and assembles the result line.
func run(build builder, seed int64, d time.Duration, traced bool) (*result, error) {
	var setups []float64
	var w workload
	var total time.Duration
	for len(setups) < minSetups || (total < setupBudget && len(setups) < maxSetups) {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = build(seed, traced); err != nil {
			return nil, err
		}
		dt := time.Since(t0)
		total += dt
		setups = append(setups, dt.Seconds())
		if traced {
			break // the ledger needs one build; setup_s is an end-to-end metric
		}
	}
	defer w.close()

	o := w.measure(d)
	runtime.GC()
	runtime.GC() // the second collection also empties the sync.Pool victim caches
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	if o.attempted == 0 {
		return nil, fmt.Errorf("no op completed in %v", d)
	}
	if o.wrong != nil {
		fmt.Fprintf(os.Stderr, "mbench: check failed: %v\n", o.wrong)
	}
	res := &result{Correct: o.wrong == nil, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if traced {
		o.layers["trace.op_ms_p50"] = tail(timed(o), 0.5)
		o.layers["host.steal_pct"] = 100 * mean(o.opsSteal)
		w.layers(o)
		for _, l := range ledger {
			res.Metrics[l.name] = metric{Value: o.layers[l.name], Unit: l.unit}
		}
	} else {
		ms := timed(o)
		vals := map[string]float64{
			"setup_s":   median(setups),
			"op_ms_p50": tail(ms, 0.50),
			"op_ms_p90": tail(ms, 0.90),
			"op_ms_p99": tail(ms, 0.99),
			"max_rate":  o.maxRate,
			"heap_mb":   float64(mem.HeapAlloc) / 1e6,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
	}
	summary(res)
	return res, nil
}

// summary prints the result as a table on standard error.
func summary(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-26s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprint(os.Stderr, b.String())
}

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	if math.IsInf(s[lo+1], 1) { // a rejected or lost session counts as never done
		return math.Inf(1)
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// windowOps is the window of the percentiles: runs are cut into windows
// of about this many consecutive ops.
const windowOps = 50

// tail returns the q-quantile of op times taken within windows of about
// windowOps consecutive ops (xs in start order), as the median over the
// windows; a run of fewer than 2*windowOps ops is one window. On a small
// virtual machine the host stalls every vCPU for 5-25 ms two or three
// times a second (an idle sleep loop sees them), and a stall lands on
// whichever op is running: the plain p99 of a run is the op a stall hit
// worst, and moved by half between runs, while the median window's tail
// stays put.
func tail(xs []float64, q float64) float64 {
	k := max(len(xs)/windowOps, 1)
	var per []float64
	for i := 0; i < k; i++ {
		per = append(per, percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q))
	}
	return median(per)
}

// closedLoop runs op back to back until d has passed, timing each one.
// Every op is the same whole operation, so the failed share of attempted
// ops does not depend on how many fit in d. The rate is completed ops per
// second over the ops that timed() reports.
func closedLoop(d time.Duration, op func() error) *outcome {
	o := &outcome{layers: map[string]float64{}}
	start := time.Now()
	for time.Since(start) < d {
		s0 := stealTicks()
		t0 := time.Now()
		err := op()
		dt := time.Since(t0)
		o.attempted++
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "mbench: op %d failed: %v\n", o.attempted, err)
			continue
		}
		o.opsMs = append(o.opsMs, float64(dt)/1e6)
		o.opsSteal = append(o.opsSteal, stealShare(stealTicks()-s0, dt))
	}
	if ms := timed(o); len(ms) > 0 {
		o.maxRate = 1000 / mean(ms)
	}
	return o
}

// mean returns the arithmetic mean of xs (0 when empty).
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
