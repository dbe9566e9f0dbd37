package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchFile is the part of BENCHMARK.json the steadiness mode reads.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartiles of xs by the rule of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartiles(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// steadiness runs each workload (or the one named) n times in child
// processes with seeds 1..n and prints, per end-to-end metric, the median
// and the quartile spread as a share of the median beside the metric's
// bound from BENCHMARK.json. It returns 1 if a run fails, if the failed
// share of ops differs between runs, or if a spread other than setup_s's
// exceeds its bound.
func steadiness(name string, n, seconds int) int {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchFile
		if err := json.Unmarshal(data, &bf); err != nil {
			fmt.Fprintf(os.Stderr, "mbench: BENCHMARK.json: %v\n", err)
			return 1
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbench: %v\n", err)
		return 1
	}
	names := []string{name}
	if name == "" {
		names = []string{"mandel-tcp", "matmul-tcp", "serve-tcp", "paper-sim"}
	}
	status := 0
	for _, w := range names {
		vals := map[string][]float64{}
		shares := map[string]bool{}
		var steals []float64
		for seed := 1; seed <= n; seed++ {
			steal0 := stealTicks()
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			var out, errOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errOut
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "mbench: %s seed %d: %v\n%s", w, seed, err, errOut.String())
				return 1
			}
			steals = append(steals, float64(time.Duration(stealTicks()-steal0)*tick)/1e9)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				fmt.Fprintf(os.Stderr, "mbench: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			if !r.Correct {
				status = 1
			}
			shares[fmt.Sprintf("%d/%d", r.Failed, r.Attempted)] = r.Failed > 0
			for m, v := range r.Metrics {
				vals[m] = append(vals[m], v.Value)
			}
		}
		fmt.Printf("%s: %d runs of %ds, failed/attempted %v\n", w, n, seconds, keys(shares))
		fmt.Printf("  host CPU steal per run (s): %s\n", runValues(steals))
		for _, m := range endToEnd {
			xs := vals[m.name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			verdict := "ok"
			if b, ok := bounds[m.name]; ok && spread > b && m.name != "setup_s" {
				verdict, status = "OVER BOUND", 1
			}
			fmt.Printf("  %-10s median %12.4f %-4s spread %6.3f bound %5.2f %s  %s\n",
				m.name, med, m.unit, spread, bounds[m.name], verdict, runValues(xs))
		}
		for _, failed := range shares {
			if failed {
				status = 1
			}
		}
	}
	return status
}

// runValues formats one metric's values, one per run, in seed order.
func runValues(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
