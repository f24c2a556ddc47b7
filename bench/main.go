// Command bench is the repo's one benchmark: it builds the paper's
// deployment in process, drives one of four workloads against it from two
// closed-loop XML-RPC clients for a fixed window, checks every answer
// against an oracle, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics of a separate traced run). See README.md.
//
//	go run ./bench -workload point_lookup -seed 1
//	go run ./bench -workload relay_scan -seed 1 -trace 1
//	go run ./bench -selfcheck 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart approximates process start for setup_s: package variables
// initialize before main runs.
var processStart = readHost()

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output: the contract with the
// acceptance driver.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

// run is main with an exit code, so that its deferred teardown happens
// before the process exits.
func run() int {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (with -selfcheck: only this one)")
		seed      = flag.Int64("seed", 1, "seed of the generated data and op sequence")
		seconds   = flag.Int("seconds", 24, "measured window in seconds")
		trace     = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics instead of the end-to-end ones")
		traceOut  = flag.String("trace-out", "", "file the traced run writes its spans to, one JSON object per line (default: none)")
		selfcheck = flag.Int("selfcheck", 0, "run every workload this many times and check each end-to-end metric's spread against BENCHMARK.json")
	)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if *selfcheck > 0 {
		return runSelfcheck(*selfcheck, *seconds, *name)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx := context.Background()
	window := time.Duration(*seconds) * time.Second
	host := startHostClock(processStart)
	defer host.stop()

	b, err := prepare(ctx, w, *seed, benchNEvents)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up: %v\n", w.name, err)
		return 1
	}
	defer b.close()

	var (
		res   result
		notes []string
	)
	if *trace != 0 {
		res, notes, err = runTraced(ctx, b, window, *traceOut)
	} else {
		res, notes = runMeasured(ctx, b, host, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: result: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("workload   %s — %s\n", w.name, w.why)
	printMetrics(res.Metrics)
	for _, n := range notes {
		fmt.Println(n)
	}
	printProvenance(*seed, window)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// prepare does everything before the window opens: pipeline, grid,
// oracle, plan, clients, the fully checked warm-up, and the workload's
// path guard.
func prepare(ctx context.Context, w *workload, seed int64, nEvents int) (*bench, error) {
	d, err := buildDeployment(seed, nEvents)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, d: d, clients: newClients(d.front.URL)}
	ref, err := newReference(d)
	if err == nil {
		b.p, err = w.gen(rand.New(rand.NewSource(seed)), ref)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	before := d.counters()
	if err := b.warmUp(ctx); err != nil {
		b.close()
		return nil, err
	}
	if err := w.guard(ctx, b, d.counters().sub(before)); err != nil {
		b.close()
		return nil, fmt.Errorf("workload guard: %w", err)
	}
	// Open the window from a collected heap, so the first GC cycle of the
	// window is not paying for set-up garbage.
	runtime.GC()
	return b, nil
}

// runMeasured is the untraced run: one window, the seven end-to-end
// metrics, and the lines that say what they rest on.
func runMeasured(ctx context.Context, b *bench, host *hostClock, window time.Duration) (result, []string) {
	open := host.mark()
	setup := host.slices(processStart.at, open)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := b.window(ctx, b.clients, window)
	runtime.ReadMemStats(&m1)
	ws := summarize(t.samples, host.slices(open, host.mark()))

	done := t.attempted - t.failed
	res := result{Correct: t.failed == 0 && ws.ops > 0, Attempted: t.attempted, Failed: t.failed}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed, first: %v\n", b.w.name, t.failed, t.attempted, t.firstErr)
	}
	if ws.disturbed {
		fmt.Fprintf(os.Stderr, "bench: %s: host disturbed the run: only %d of %d slices kept, %.1f%% of CPU time stolen\n",
			b.w.name, ws.keptSlices, ws.slices, ws.stolenPct)
	}
	res.Metrics = map[string]metric{
		"setup_s":          {unstolen(setup).Seconds(), "s"},
		"ops_per_s":        {float64(ws.ops) / ws.kept.Seconds(), "1/s"},
		"rows_per_s":       {float64(ws.rows) / ws.kept.Seconds(), "1/s"},
		"query_p50_ms":     {percentile(ws.latMs, 0.50), "ms"},
		"query_p90_ms":     {percentile(ws.latMs, 0.90), "ms"},
		"first_row_p50_ms": {percentile(ws.firstMs, 0.50), "ms"},
		"alloc_kb_per_op":  {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(max(done, 1)), "kB"},
	}
	wall := open.Sub(processStart.at)
	return res, []string{
		fmt.Sprintf("ops        attempted %d, failed %d", t.attempted, t.failed),
		fmt.Sprintf("samples    %d read latencies (%d beyond p90), %d refreshes",
			len(ws.latMs), beyond(len(ws.latMs), 0.90), len(ws.refreshMs)),
		fmt.Sprintf("host       %d of %d window slices kept (%.1fs), %.2f%% of window CPU time stolen; set-up %.3fs wall, %.3fs stolen",
			ws.keptSlices, ws.slices, ws.kept.Seconds(), ws.stolenPct, wall.Seconds(), (wall - unstolen(setup)).Seconds()),
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printProvenance says what produced the numbers above.
func printProvenance(seed int64, window time.Duration) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("provenance commit=%s go=%s gomaxprocs=%d nproc=%d clients=%d seed=%d window=%s events=%d\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), nClients, seed, window, benchNEvents)
}
