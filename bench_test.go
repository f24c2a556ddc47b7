package gridrdb

// One benchmark per table and figure of the paper's evaluation (§5), plus
// ablation benchmarks for the design choices DESIGN.md calls out. These
// run on the zero-latency "local" profile so they measure the middleware
// itself; cmd/benchrepro regenerates the paper's tables under the
// simulated 100 Mbps LAN profile.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gridrdb/internal/dataaccess"
	"gridrdb/internal/experiments"
	"gridrdb/internal/netsim"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/warehouse"
)

// ---- Figure 4: Stage 1, sources -> warehouse ----

func benchStage1(b *testing.B, nev int, staging bool) {
	cfg := ntuple.Config{Name: "bnt", NVar: 8, NEvents: nev, Runs: 4, Seed: 1}
	src := sqlengine.NewEngine("bsrc", sqlengine.DialectMySQL)
	if _, err := ntuple.NewGenerator(cfg).PopulateNormalized(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wh := sqlengine.NewEngine("bwh", sqlengine.DialectOracle)
		if err := warehouse.InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
			b.Fatal(err)
		}
		etl := &warehouse.ETL{Staging: staging, BatchSize: 128}
		b.StartTimer()
		res, err := etl.RunStage1(src, cfg, wh, wh.Dialect())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(res.Bytes)
	}
}

// BenchmarkFig4ExtractLoad measures the Stage-1 ETL transfer at several
// staging-file sizes (the x-axis of Figure 4).
func BenchmarkFig4ExtractLoad(b *testing.B) {
	for _, nev := range []int{50, 500, 2150} {
		b.Run(fmt.Sprintf("events=%d", nev), func(b *testing.B) {
			benchStage1(b, nev, true)
		})
	}
}

// ---- Figure 5: Stage 2, warehouse views -> marts ----

// BenchmarkFig5Materialize measures view materialization into a MySQL mart.
func BenchmarkFig5Materialize(b *testing.B) {
	for _, nev := range []int{40, 350, 730} {
		b.Run(fmt.Sprintf("events=%d", nev), func(b *testing.B) {
			cfg := ntuple.Config{Name: "bnt5", NVar: 8, NEvents: nev, Runs: 1, Seed: 2}
			src := sqlengine.NewEngine("bsrc5", sqlengine.DialectMySQL)
			if _, err := ntuple.NewGenerator(cfg).PopulateNormalized(src); err != nil {
				b.Fatal(err)
			}
			wh := sqlengine.NewEngine("bwh5", sqlengine.DialectOracle)
			if err := warehouse.InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
				b.Fatal(err)
			}
			etl := warehouse.NewETL()
			if _, err := etl.RunStage1(src, cfg, wh, wh.Dialect()); err != nil {
				b.Fatal(err)
			}
			views := warehouse.RunViews(cfg, wh.Dialect())
			if err := warehouse.CreateViews(wh, views); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mart := sqlengine.NewEngine("bmart5", sqlengine.DialectMySQL)
				res, err := etl.Materialize(wh, views[0].Name, cfg, mart, mart.Dialect(), "nt_local")
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(res.Bytes)
			}
		})
	}
}

// ---- Table 1 and Figure 6: the Stage-3 deployment ----

var (
	benchDeployOnce sync.Once
	benchDeploy     *experiments.Deployment
	benchDeployErr  error
)

// benchDeployment lazily builds one two-server deployment shared by the
// Stage-3 benchmarks (local profile: measures middleware cost only).
func benchDeployment(b *testing.B) *experiments.Deployment {
	benchDeployOnce.Do(func() {
		opt := experiments.DeployOptions{RowsPerTable: 3000, FillerTablesPerDB: 10, Profile: netsim.Local}
		benchDeploy, benchDeployErr = experiments.Deploy(opt)
	})
	if benchDeployErr != nil {
		b.Fatal(benchDeployErr)
	}
	return benchDeploy
}

// BenchmarkTable1QueryResponse measures the three query shapes of Table 1
// through the XML-RPC interface.
func BenchmarkTable1QueryResponse(b *testing.B) {
	d := benchDeployment(b)
	names := []string{"1server-local-1table", "1server-distributed-2tables", "2servers-distributed-4tables"}
	for qi, q := range experiments.Table1Queries() {
		b.Run(names[qi], func(b *testing.B) {
			client := d.Client()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.CallContext(context.Background(), "dataaccess.query", q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6RowSweep measures response time versus rows requested.
func BenchmarkFig6RowSweep(b *testing.B) {
	d := benchDeployment(b)
	for _, n := range []int{21, 301, 901, 2551} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			client := d.Client()
			q := fmt.Sprintf("SELECT event_id, run, e_tot FROM ev1 LIMIT %d", n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := client.CallDecodeContext(context.Background(), "dataaccess.query", decodeQueryResult, q)
				if err != nil {
					b.Fatal(err)
				}
				if rows := len(res.(*dataaccess.QueryResult).Rows); rows != n {
					b.Fatalf("got %d rows, want %d", rows, n)
				}
			}
		})
	}
}

// ---- Ablations ----

// BenchmarkAblationStaging compares the prototype's temp-file staging ETL
// against direct streaming (§5.1 calls staging "a performance bottleneck").
func BenchmarkAblationStaging(b *testing.B) {
	b.Run("staged", func(b *testing.B) { benchStage1(b, 700, true) })
	b.Run("direct", func(b *testing.B) { benchStage1(b, 700, false) })
}

// BenchmarkAblationParallel compares scatter-gather over the bounded
// worker pool (the paper's enhancement, now pooled) against stock Unity's
// sequential execution, which is a pool one wide.
func BenchmarkAblationParallel(b *testing.B) {
	d := benchDeployment(b)
	q := "SELECT e.event_id, m.detector FROM ev1 e JOIN meta2 m ON e.run = m.run"
	run := func(name string, width int) {
		b.Run(name, func(b *testing.B) {
			fed := d.Serv1.Federation()
			oldWidth := fed.MaxParallel
			fed.MaxParallel = width
			defer func() { fed.MaxParallel = oldWidth }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Serv1.QueryContext(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("parallel", 0)
	run("sequential", 1)
}

// ---- Query-result cache (the qcache subsystem) ----

var (
	benchCacheOnce   sync.Once
	benchCacheDeploy *experiments.Deployment
	benchCacheErr    error
)

// benchCacheDeployment builds the cache-enabled twin of benchDeployment.
func benchCacheDeployment(b *testing.B) *experiments.Deployment {
	benchCacheOnce.Do(func() {
		opt := experiments.SmallDeploy()
		opt.RowsPerTable = 3000
		opt.FillerTablesPerDB = 10
		opt.CacheSize = 1024
		benchCacheDeploy, benchCacheErr = experiments.Deploy(opt)
	})
	if benchCacheErr != nil {
		b.Fatal(benchCacheErr)
	}
	return benchCacheDeploy
}

// BenchmarkCacheFederated measures the multi-mart scenario cold (cache
// flushed every iteration, so each query re-runs the full scatter-gather)
// versus warm (entry resident; served straight from qcache). The warm
// path must come out >= 10x faster than cold.
func BenchmarkCacheFederated(b *testing.B) {
	d := benchCacheDeployment(b)
	// The multi-mart scenario: a distributed join whose scatter-gather
	// spans two member databases of server 1.
	const q = "SELECT e.event_id, m.detector FROM ev1 e JOIN meta2 m ON e.run = m.run"
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Serv1.CacheFlush()
			if _, err := d.Serv1.QueryContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := d.Serv1.QueryContext(context.Background(), q); err != nil { // prime
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Serv1.QueryContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if d.Serv1.CacheStats().Hits < int64(b.N) {
			b.Fatalf("warm phase was not served from the cache: %+v", d.Serv1.CacheStats())
		}
	})
	b.Run("uncached-baseline", func(b *testing.B) {
		base := benchDeployment(b) // cache-disabled twin
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := base.Serv1.QueryContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRoute compares the POOL-RAL path against the Unity path
// for the same single-table query (§4.5's routing decision).
func BenchmarkAblationRoute(b *testing.B) {
	d := benchDeployment(b)
	q := "SELECT event_id, e_tot FROM ev1 WHERE run = 102"
	b.Run("pool-ral", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qr, err := d.Serv1.QueryContext(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			if qr.Route != dataaccess.RoutePOOLRAL {
				b.Fatalf("route = %s", qr.Route)
			}
		}
	})
	b.Run("unity", func(b *testing.B) {
		// Force the Unity path with a shape RAL rejects (ORDER BY).
		qq := q + " ORDER BY event_id"
		for i := 0; i < b.N; i++ {
			qr, err := d.Serv1.QueryContext(context.Background(), qq)
			if err != nil {
				b.Fatal(err)
			}
			if qr.Route != dataaccess.RouteUnity {
				b.Fatalf("route = %s", qr.Route)
			}
		}
	})
}

// BenchmarkAblationRLS compares a query answered locally against the same
// logical operation requiring an RLS lookup plus remote forwarding — the
// cost the paper accepts to distribute registration load (§4.8).
func BenchmarkAblationRLS(b *testing.B) {
	d := benchDeployment(b)
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Serv1.QueryContext(context.Background(), "SELECT event_id FROM ev1 WHERE run = 101"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rls-remote", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qr, err := d.Serv1.QueryContext(context.Background(), "SELECT event_id FROM ev4 WHERE run = 101")
			if err != nil {
				b.Fatal(err)
			}
			if qr.Route != dataaccess.RouteRemote {
				b.Fatalf("route = %s", qr.Route)
			}
		}
	})
}

// BenchmarkEngineSelect is a microbenchmark of the embedded engine itself.
func BenchmarkEngineSelect(b *testing.B) {
	e := sqlengine.NewEngine("micro", sqlengine.DialectANSI)
	if _, err := e.Exec("CREATE TABLE t (a INTEGER, b DOUBLE, c VARCHAR(32))"); err != nil {
		b.Fatal(err)
	}
	rows := make([]sqlengine.Row, 10000)
	for i := range rows {
		rows[i] = sqlengine.Row{
			sqlengine.NewInt(int64(i)), sqlengine.NewFloat(float64(i) / 3),
			sqlengine.NewString(fmt.Sprintf("tag%d", i%100)),
		}
	}
	if _, err := e.InsertRows("t", rows); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := e.Query("SELECT a, b FROM t WHERE a % 100 = 7 AND b > 1")
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}
