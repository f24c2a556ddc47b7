// federate-legacy demonstrates the paper's semantic-integration future
// work (§6): two sites store the *same* physics quantities under different
// vendor conventions — an Oracle site with EVENTS_T01/EVT_ID/E_RAW naming
// and a MySQL site with tbl_events/evt_id/e_raw naming. The semantic
// matcher scores table pairs by name and structural similarity, unifies
// their logical names, and the Unity federation then treats them as
// replicas of one logical table: a single query reaches either copy, with
// replica selection steered by network proximity probes.
//
// The example finishes with the streamed counterpart of the federated
// query: rows pulled incrementally off the chosen replica instead of one
// materialized result. Against a running jclarensd the same shape is
// reached from the command line with `gridql -stream` (page size set by
// `-fetch-size`, server-side cursor traffic inspected with `-cursors`).
//
// Run with: go run ./examples/federate-legacy
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"time"

	"gridrdb"
	"gridrdb/internal/proximity"
	"gridrdb/internal/semantic"
	"gridrdb/internal/unity"
	"gridrdb/internal/xspec"
)

func main() {
	// --- Two legacy sites with divergent naming -----------------------
	ora := gridrdb.NewEngine("legacy_oracle", gridrdb.Oracle)
	if err := ora.ExecScript(`
		CREATE TABLE "EVENTS_T01" ("EVT_ID" NUMBER PRIMARY KEY, "RUN_NO" NUMBER, "E_RAW" BINARY_DOUBLE);
		INSERT INTO "EVENTS_T01" VALUES (1, 100, 5.5), (2, 100, 6.25), (3, 101, 7.75);
		CREATE TABLE "RUN_META" ("RUN_NO" NUMBER PRIMARY KEY, "DETECTOR" VARCHAR2(16));
		INSERT INTO "RUN_META" VALUES (100, 'CMS'), (101, 'ATLAS')`); err != nil {
		log.Fatal(err)
	}
	my := gridrdb.NewEngine("legacy_mysql", gridrdb.MySQL)
	if err := my.ExecScript("CREATE TABLE `tbl_events` (`evt_id` BIGINT PRIMARY KEY, `run_no` BIGINT, `e_raw` DOUBLE);" +
		"INSERT INTO `tbl_events` VALUES (1, 100, 5.5), (2, 100, 6.25), (3, 101, 7.75);" +
		"CREATE TABLE `runs` (`run_no` BIGINT PRIMARY KEY, `detector` VARCHAR(16));" +
		"INSERT INTO `runs` VALUES (100, 'CMS'), (101, 'ATLAS')"); err != nil {
		log.Fatal(err)
	}

	oraSpec, err := gridrdb.GenerateXSpec(ora)
	if err != nil {
		log.Fatal(err)
	}
	mySpec, err := gridrdb.GenerateXSpec(my)
	if err != nil {
		log.Fatal(err)
	}

	// --- Semantic matching --------------------------------------------
	matches := semantic.MatchSpecs(oraSpec, mySpec, semantic.DefaultOptions())
	fmt.Println("proposed table correspondences:")
	for _, m := range matches {
		fmt.Printf("  %-12s <-> %-12s  score=%.2f (name %.2f, structure %.2f), %d column pairs\n",
			m.LeftTable, m.RightTable, m.Score, m.NameScore, m.StructScore, len(m.Columns))
	}
	if _, err := semantic.Unify(oraSpec, mySpec, matches); err != nil {
		log.Fatal(err)
	}

	// --- Federate the unified specs -----------------------------------
	upper := &xspec.UpperSpec{Name: "legacy-fed", Sources: []xspec.SourceRef{
		{Name: "legacy_oracle", URL: "local://legacy_oracle", Driver: "gridsql-oracle"},
		{Name: "legacy_mysql", URL: "local://legacy_mysql", Driver: "gridsql-mysql"},
	}}
	fed, err := unity.Open(upper, map[string]*xspec.LowerSpec{
		"legacy_oracle": oraSpec, "legacy_mysql": mySpec,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()

	fmt.Println("\nunified dictionary:")
	dict := fed.Dictionary()
	for _, tname := range dict.LogicalTables() {
		locs := dict.Lookup(tname)
		fmt.Printf("  %-14s -> %d replica(s)\n", tname, len(locs))
	}

	// One logical query now reaches either site's copy.
	rs, err := fed.QueryContext(context.Background(), `SELECT e.evt_id, e.e_raw, r.detector
	                      FROM events_t01 e JOIN run_meta r ON e.run_no = r.run_no
	                      WHERE r.detector = 'CMS' ORDER BY e.evt_id`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfederated query over the unified logical schema:\n%s", gridrdb.FormatResult(rs))

	// --- Proximity-steered replica selection ---------------------------
	prober := proximity.NewProber(fed)
	prober.SetMeasureFunc(func(_ context.Context, source string) (time.Duration, error) {
		// Pretend the Oracle site is across the WAN.
		if source == "legacy_oracle" {
			return 80 * time.Millisecond, nil
		}
		return 2 * time.Millisecond, nil
	})
	prober.ProbeOnce(context.Background())
	plan, err := fed.PlanQuery("SELECT evt_id FROM events_t01")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter proximity probes, the replicated table is read from: %s (the near site)\n",
		plan.Subs[0].Source)

	// --- Streamed federated scan ---------------------------------------
	// The same logical query as an incremental row stream: the pushdown
	// plan streams straight off the chosen replica, one row per pull.
	// Over XML-RPC this shape is `gridql -stream -fetch-size 256 "..."`,
	// with `gridql -cursors` showing the server-side cursor (and, on
	// multi-server grids, cursor-relay) counters.
	it, _, err := fed.QueryStreamContext(context.Background(), "SELECT evt_id, e_raw FROM events_t01")
	if err != nil {
		log.Fatal(err)
	}
	defer it.Close()
	streamed := 0
	for {
		if _, err := it.Next(); err != nil {
			if err != io.EOF {
				log.Fatal(err)
			}
			break
		}
		streamed++
	}
	fmt.Printf("\nstreamed federated scan: %d rows pulled incrementally (gridql -stream / -fetch-size / -cursors)\n", streamed)
}
