// plugin-schema demonstrates the paper's two runtime-evolution features:
//
//   - §4.10 plug-in databases: a brand-new SQLite database is added to a
//     running JClarens server over XML-RPC by handing it the URL of the
//     database's XSpec file, the driver name and the database location;
//   - §4.9 schema-change tracking: a column and a table are added to a
//     live backend, and the periodic tracker detects the change through
//     the size+MD5 fingerprint of the regenerated XSpec and hot-reloads
//     the server's data dictionary.
//
// Run with: go run ./examples/plugin-schema
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gridrdb"
	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/xspec"
)

func main() {
	grid := gridrdb.NewGrid()
	defer grid.Close()
	if _, err := grid.StartRLS(""); err != nil {
		log.Fatal(err)
	}
	jc, err := grid.AddServer(gridrdb.ServerConfig{Name: "jclarens", Open: true})
	if err != nil {
		log.Fatal(err)
	}

	// A mart that is present from the start.
	base := gridrdb.NewEngine("base_mart", gridrdb.MySQL)
	if err := base.ExecScript("CREATE TABLE `runs` (`run` BIGINT PRIMARY KEY, `detector` VARCHAR(16));" +
		"INSERT INTO `runs` VALUES (100, 'CMS'), (101, 'ATLAS')"); err != nil {
		log.Fatal(err)
	}
	if err := jc.AddMart(base); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	client := jc.Client()
	printTables(ctx, client, "initial")

	// ---- §4.10: plug in a new database at runtime --------------------
	laptop := gridrdb.NewEngine("laptop_sqlite", gridrdb.SQLite)
	if err := laptop.ExecScript("CREATE TABLE beamspot (run INTEGER PRIMARY KEY, x REAL, y REAL);" +
		"INSERT INTO beamspot VALUES (100, 0.08, -0.03), (101, 0.09, -0.02)"); err != nil {
		log.Fatal(err)
	}
	spec, err := gridrdb.GenerateXSpec(laptop)
	if err != nil {
		log.Fatal(err)
	}
	data, err := spec.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "xspec")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	specPath := filepath.Join(dir, "laptop_sqlite.xspec")
	if err := xspec.WriteFile(specPath, data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nXSpec written to %s (%d bytes); plugging in over XML-RPC...\n", specPath, len(data))

	res, err := client.CallContext(ctx, "dataaccess.addDatabase", "file://"+specPath, "gridsql-sqlite", "local://laptop_sqlite")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server registered plug-in database %q\n", res)
	printTables(ctx, client, "after plug-in")

	// The new table participates in federated joins immediately.
	qr, err := jc.Query("SELECT r.run, r.detector, b.x, b.y FROM runs r JOIN beamspot b ON r.run = b.run ORDER BY r.run")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njoin with the plugged-in table (%s route):\n%s", qr.Route, gridrdb.FormatResult(qr.ResultSet))

	// ---- §4.9: schema-change tracking ---------------------------------
	tracker := dataaccess.NewTracker(jc.Service, 0) // manual CheckNow
	if _, err := tracker.CheckNow(); err != nil {   // baseline fingerprints
		log.Fatal(err)
	}

	fmt.Println("\nmutating the live backend: ALTER TABLE runs ADD period; CREATE TABLE quality")
	if err := base.ExecScript("ALTER TABLE `runs` ADD COLUMN `period` VARCHAR(8) DEFAULT 'A';" +
		"CREATE TABLE `quality` (`run` BIGINT, `flag` VARCHAR(8));" +
		"INSERT INTO `quality` VALUES (100, 'GOLDEN')"); err != nil {
		log.Fatal(err)
	}

	updated, err := tracker.CheckNow()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tracker detected changed schemas: %v\n", updated)
	printTables(ctx, client, "after schema reload")

	qr, err = jc.Query("SELECT r.run, r.period, q.flag FROM runs r JOIN quality q ON r.run = q.run")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery using the new column and table:\n%s", gridrdb.FormatResult(qr.ResultSet))

	checks, ups := tracker.Stats()
	fmt.Printf("tracker ran %d checks and applied %d updates\n", checks, ups)
}

func printTables(ctx context.Context, c *clarens.Client, label string) {
	res, err := c.CallContext(ctx, "dataaccess.tables")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("logical tables (%s): %v\n", label, res)
}
