// Command benchrepro regenerates every table and figure of the paper's
// evaluation section (§5) and prints them in the paper's format, alongside
// the published values for shape comparison. How fast the system is today
// is bench/'s question (bash bench/run.sh), not this command's.
//
// Usage:
//
//	benchrepro [-exp fig4|fig5|table1|fig6|wan|all] [-scale small|paper] [-repeats N]
//
// The "paper" scale uses the simulated 100 Mbps LAN profile and the
// paper's testbed dimensions (6 databases, ~80k rows, ~1700 tables,
// per-query database connections); "small" runs in milliseconds with no
// simulated latency and is meant for CI. "all" is the §5 set; "wan" (the
// §6 future-work sweep, which sleeps real WAN latencies) runs only when
// named.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gridrdb/internal/experiments"
	"gridrdb/internal/netsim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig4, fig5, table1, fig6, wan, all (= the four of §5)")
	scale := flag.String("scale", "small", "testbed scale: small (CI) or paper (simulated LAN, full size)")
	repeats := flag.Int("repeats", 3, "measurement repeats per point")
	flag.Parse()
	switch *exp {
	case "fig4", "fig5", "table1", "fig6", "wan", "all":
	default:
		log.Fatalf("unknown -exp %q (want fig4, fig5, table1, fig6, wan or all)", *exp)
	}

	profile := netsim.Local
	opts := experiments.SmallDeploy()
	if *scale == "paper" {
		profile = netsim.LAN100
		opts = experiments.PaperDeploy()
	}

	run := func(name string, f func() error) {
		if *exp == name || (*exp == "all" && name != "wan") {
			if err := f(); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
	}

	run("fig4", func() error {
		fmt.Println("== Figure 4: Performance of data extraction and loading by streaming ==")
		fmt.Println("   (sources -> staging file -> data warehouse)")
		rows, err := experiments.RunFig4(experiments.Fig4Sizes, profile)
		if err != nil {
			return err
		}
		printStage(rows)
		fmt.Println("paper shape: both series grow ~linearly with size; loading lies above extraction")
		fmt.Println("paper x-axis: 0.397 ... 207.866 kB; loading reached ~15 s at 207 kB on the 2005 testbed")
		fmt.Println()
		return nil
	})
	run("fig5", func() error {
		fmt.Println("== Figure 5: Views extracted from the warehouse and materialized into data marts ==")
		rows, err := experiments.RunFig5(experiments.Fig5Sizes, profile)
		if err != nil {
			return err
		}
		printStage(rows)
		fmt.Println("paper shape: ~linear in size; loading above extraction; x-axis up to ~70 kB (~80 s loading)")
		fmt.Println()
		return nil
	})

	var dep *experiments.Deployment
	if *exp == "all" || *exp == "table1" || *exp == "fig6" {
		fmt.Fprintf(os.Stderr, "building stage-3 deployment (scale=%s)...\n", *scale)
		var err error
		dep, err = experiments.Deploy(opts)
		if err != nil {
			log.Fatalf("deploy: %v", err)
		}
		defer dep.Close()
	}
	run("table1", func() error { return runTable1(dep, *repeats) })
	run("fig6", func() error { return runFig6(dep, *repeats) })
	run("wan", func() error { return runWAN(*repeats) })
}

// printStage prints the rows of Figure 4 or 5.
func printStage(rows []experiments.StageRow) {
	fmt.Printf("%12s %8s %18s %16s\n", "size (kB)", "rows", "extraction (s)", "loading (s)")
	for _, r := range rows {
		fmt.Printf("%12.3f %8d %18.4f %16.4f\n", r.SizeKB, r.Rows, r.ExtractSec, r.LoadSec)
	}
}

func yesNo(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

func runTable1(d *experiments.Deployment, repeats int) error {
	fmt.Println("== Table 1: Query Response Time ==")
	rows, err := experiments.RunTable1(d, repeats)
	if err != nil {
		return err
	}
	paper := []float64{38, 487.5, 594}
	fmt.Printf("%10s %14s %16s %10s %14s\n", "#servers", "distributed", "response (ms)", "#tables", "paper (ms)")
	for i, r := range rows {
		fmt.Printf("%10d %14s %16.1f %10d %14.1f\n", r.Servers, yesNo(r.Distributed), r.ResponseMS, r.Tables, paper[i])
	}
	if rows[0].ResponseMS > 0 {
		fmt.Printf("distributed/local ratio: %.1fx (paper: %.1fx; >10x expected)\n",
			rows[1].ResponseMS/rows[0].ResponseMS, paper[1]/paper[0])
	}
	fmt.Println()
	return nil
}

func runFig6(d *experiments.Deployment, repeats int) error {
	fmt.Println("== Figure 6: Response time versus number of rows requested ==")
	rows, err := experiments.RunFig6(d, experiments.Fig6RowCounts, repeats)
	if err != nil {
		return err
	}
	fmt.Printf("%16s %16s\n", "rows requested", "response (ms)")
	for _, r := range rows {
		fmt.Printf("%16d %16.1f\n", r.RowsRequested, r.ResponseMS)
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.ResponseMS > 0 {
		fmt.Printf("growth %d->%d rows: %.2fx (paper: ~300->700 ms, 2.3x; linear with large intercept)\n",
			first.RowsRequested, last.RowsRequested, last.ResponseMS/first.ResponseMS)
	}
	fmt.Println()
	return nil
}

// runWAN is the §6 future-work extension: the Table-1 query shapes
// re-measured across LAN and WAN link profiles.
func runWAN(repeats int) error {
	fmt.Println("== Extension: LAN vs WAN query distribution (paper §6 future work) ==")
	rows, err := experiments.RunWAN([]*netsim.Profile{netsim.Local, netsim.LAN100, netsim.WAN}, 2000, repeats)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %14s %16s\n", "profile", "distributed", "response (ms)")
	for _, r := range rows {
		fmt.Printf("%10s %14s %16.1f\n", r.Profile, yesNo(r.Distributed), r.ResponseMS)
	}
	fmt.Println("expected shape: WAN >> LAN >> local; the distributed penalty grows with link cost")
	fmt.Println()
	return nil
}
