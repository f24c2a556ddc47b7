package main

// -selfcheck N: run every workload N times, each run its own process with
// its own seed (as the acceptance driver does), and hold each end-to-end
// metric's run-to-run spread against the bound BENCHMARK.json fixes for
// it. The spread is the driver's: the distance between the first and
// third quartile as a share of the median.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOnce executes one benchmark run in a child process and returns its
// result line and its line on what the host did to it.
func runOnce(exe, workload string, seed int64, seconds int) (result, string, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, "", fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, "", fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return res, "", fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
	}
	host := ""
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte("host ")) {
			host = string(l)
		}
	}
	return res, host, nil
}

// runSelfcheck returns the process exit code.
func runSelfcheck(n, seconds int, only string) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck needs at least 2 runs per workload")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: BENCHMARK.json (run from the repo root): %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return 2
	}
	failed := false
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		fmt.Printf("%s (%d runs of %ds)\n", w.name, n, seconds)
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, host, err := runOnce(exe, w.name, int64(i+1), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
				return 1
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Printf("  seed %-3d ops_per_s %10.3f  query_p50_ms %8.4f  %s\n",
				i+1, res.Metrics["ops_per_s"].Value, res.Metrics["query_p50_ms"].Value, host)
		}
		fmt.Printf("  %-18s %12s %12s %12s %8s %8s %7s\n", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "bound")
		for _, e := range bf.EndToEnd {
			vs := values[e.Name]
			if len(vs) != n {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s did not report %s\n", w.name, e.Name)
				return 1
			}
			q1, q2, q3 := quartiles(vs)
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			spread := (q3 - q1) / q2
			verdict := ""
			// setup_s is held to its bound between medians of run sets, not
			// within one set, as in the driver.
			if spread > e.Bound && e.Name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				failed = true
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %6.1f%%%s\n",
				e.Name, q1, q2, q3, 100*spread, 100*(hi-lo)/q2, 100*e.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
