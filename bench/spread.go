package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// child runs one workload in a fresh process of this binary, passing
// its output through, and returns the parsed summary line.
func child(cfg config, workload string, seed int64, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tflag := "0"
	if trace {
		tflag = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", tflag}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	os.Stdout.Write(out)
	var res result
	if err := json.Unmarshal([]byte(lastLine(string(out))), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no summary line (exit: %v)", workload, seed, runErr)
	}
	return &res, nil
}

// runAll runs every workload once, each in its own process, and exits
// non-zero if any of them failed a check.
func runAll(cfg config) int {
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w)
		res, err := child(cfg, w, cfg.seed, cfg.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// bounds reads the end-to-end regression bounds from BENCHMARK.json in
// the working directory.
func bounds() (map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	b := map[string]float64{}
	for _, m := range spec.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b, nil
}

// spread runs every workload n times in fresh processes with seeds
// 1..n, alternating the workload order between rounds, and prints each
// end-to-end metric's median and interquartile range as a share of the
// median. A metric whose spread exceeds its BENCHMARK.json bound is
// flagged (set-up time excepted: its bound applies to medians only).
func spread(cfg config, n int) int {
	bnd, err := bounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -runs needs BENCHMARK.json in the working directory:", err)
		return 2
	}
	vals := map[string]map[string][]float64{}
	code := 0
	for r := 0; r < n; r++ {
		order := append([]string(nil), workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := child(cfg, w, int64(r+1), false)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s run %d failed: %v\n", w, r+1, err)
				code = 1
				continue
			}
			if vals[w] == nil {
				vals[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				vals[w][name] = append(vals[w][name], m.Value)
			}
		}
	}
	fmt.Printf("\n%-9s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := vals[w][d.name]
			q1, med, q3 := quartiles(xs)
			rel := ratio(q3-q1, med)
			flag := ""
			if d.name != "setup_s" && rel > bnd[d.name] {
				flag = "  WIDER THAN BOUND"
				code = 1
			}
			fmt.Printf("%-9s %-14s %12.6g %12.6g %12.6g %8.4f %6.3f%s\n", w, d.name, q1, med, q3, rel, bnd[d.name], flag)
		}
	}
	return code
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) < 2 {
		v := quantile(xs, 0.5)
		return v, v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)+1)
		j := int(h)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
