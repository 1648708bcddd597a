package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Self-check: does this benchmark, on this box, repeat well enough to
// judge a change with? It runs two interleaved sets of n untraced runs
// of every workload with this same binary — A1 B1 A2 B2 …, every run
// on a seed of its own — and applies the acceptance rule to the pair of
// sets: for every end-to-end metric of every workload, set B's median
// may not be worse than set A's by more than the metric's bound, and
// (setup_s excepted) each set's (q3-q1)/median may not exceed the
// bound. Any violation makes the exit code 1.

// benchmarkFile is the part of BENCHMARK.json the check needs.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func runSelfCheck(n int, seed uint64) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck runs from the repository root:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	// values[set][workload][metric] is that set's readings, in run order.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, w := range workloadNames() {
			values[s][w] = map[string][]float64{}
		}
	}
	for i := 0; i < n; i++ {
		for s := range values {
			for _, w := range workloadNames() {
				runSeed := seed + uint64(s*n+i)
				_, res, err := childRun(w, runSeed, float64(bf.RunSeconds), false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: %v\n", w, runSeed, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: %d of %d ops failed\n", w, runSeed, res.Failed, res.Attempted)
					return 1
				}
				for name, v := range res.Metrics {
					values[s][w][name] = append(values[s][w][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %c run %d/%d %s done\n", 'A'+s, i+1, n, w)
			}
		}
	}

	fmt.Printf("# selfcheck: 2 interleaved sets of %d runs, %d s each, seeds %d..%d\n", n, bf.RunSeconds, seed, seed+uint64(2*n)-1)
	fmt.Printf("%-13s %-19s %13s %8s %13s %8s %9s %7s  %s\n",
		"workload", "metric", "median A", "spread A", "median B", "spread B", "B worse", "bound", "verdict")
	bad := 0
	for _, w := range workloadNames() {
		for _, m := range bf.EndToEnd {
			a, b := values[0][w][m.Name], values[1][w][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "FAIL: sets disagree"
			case m.Name != "setup_s" && max(sa, sb) > m.Bound:
				verdict = "FAIL: spread over bound"
			case m.Name != "setup_s" && max(sa, sb) > m.Bound/3:
				verdict = "ok (spread over a third of bound)"
			}
			if verdict[0] == 'F' {
				bad++
			}
			fmt.Printf("%-13s %-19s %13.4f %8.4f %13.4f %8.4f %+9.4f %7.3f  %s\n", w, m.Name, ma, sa, mb, sb, worse, m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("# selfcheck: %d metric x workload pairs FAILED\n", bad)
		return 1
	}
	fmt.Println("# selfcheck: every metric x workload pair within its bound")
	return 0
}
