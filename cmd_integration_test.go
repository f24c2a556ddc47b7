package gridrdb

// Daemon-level integration test: builds the real binaries (rlsd, dbserved,
// jclarensd, gridql, etlctl) and drives a two-process deployment over real
// sockets, exactly as the README's three-terminal walkthrough does.

import (
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gridrdb/internal/sqlengine"
)

// buildCmds compiles the commands once into a temp dir.
func buildCmds(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := map[string]string{}
	for _, n := range names {
		bin := filepath.Join(dir, n)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+n)
		cmd.Dir = "."
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", n, err, msg)
		}
		out[n] = bin
	}
	return out
}

// freePort reserves an ephemeral port and returns "127.0.0.1:port".
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startDaemon launches a binary and kills it at cleanup.
func startDaemon(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode < 500 {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never came up", url)
}

func waitTCP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never came up", addr)
}

func TestDaemonsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-level test")
	}
	bins := buildCmds(t, "rlsd", "dbserved", "jclarensd", "gridql")

	// Schema for the hosted databases.
	schema := filepath.Join(t.TempDir(), "schema.sql")
	if err := os.WriteFile(schema, []byte(
		"CREATE TABLE `events` (`event_id` BIGINT PRIMARY KEY, `run` BIGINT, `e_tot` DOUBLE);"+
			"INSERT INTO `events` VALUES (1,100,5.5),(2,100,6.5),(3,101,7.5);"), 0o644); err != nil {
		t.Fatal(err)
	}
	schema2 := filepath.Join(t.TempDir(), "schema2.sql")
	if err := os.WriteFile(schema2, []byte(
		"CREATE TABLE [runsinfo] ([run] BIGINT PRIMARY KEY, [detector] NVARCHAR(16));"+
			"INSERT INTO [runsinfo] VALUES (100,'CMS'),(101,'ATLAS');"), 0o644); err != nil {
		t.Fatal(err)
	}

	rlsAddr := freePort(t)
	dbAddr := freePort(t)
	jc1Addr := freePort(t)
	jc2Addr := freePort(t)

	startDaemon(t, bins["rlsd"], "-addr", rlsAddr, "-ttl", "1m")
	waitHTTP(t, "http://"+rlsAddr+"/healthz")

	startDaemon(t, bins["dbserved"], "-addr", dbAddr,
		"-db", "martA=mysql", "-init", "martA="+schema,
		"-db", "martB=mssql", "-init", "martB="+schema2)
	waitTCP(t, dbAddr)

	startDaemon(t, bins["jclarensd"], "-addr", jc1Addr, "-name", "jc1",
		"-rls", "http://"+rlsAddr,
		"-mart", "martA=gridsql-mysql=tcp://"+dbAddr+"/martA",
		"-renew", "10s")
	waitHTTP(t, "http://"+jc1Addr+"/healthz")

	startDaemon(t, bins["jclarensd"], "-addr", jc2Addr, "-name", "jc2",
		"-rls", "http://"+rlsAddr,
		"-mart", "martB=gridsql-mssql=tcp://"+dbAddr+"/martB")
	waitHTTP(t, "http://"+jc2Addr+"/healthz")

	gridql := func(args ...string) string {
		out, err := exec.Command(bins["gridql"], args...).CombinedOutput()
		if err != nil {
			t.Fatalf("gridql %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Table listing over XML-RPC.
	if out := gridql("-server", "http://"+jc1Addr, "-tables"); !strings.Contains(out, "events") {
		t.Fatalf("tables: %s", out)
	}
	// Local query.
	out := gridql("-server", "http://"+jc1Addr, "SELECT event_id, e_tot FROM events WHERE run = 100")
	if !strings.Contains(out, "5.5") || !strings.Contains(out, "2 rows") {
		t.Fatalf("local query: %s", out)
	}
	// Cross-server query: jc1 does not host runsinfo; it must go through
	// the RLS to jc2.
	out = gridql("-server", "http://"+jc1Addr, "SELECT detector FROM runsinfo WHERE run = 101")
	if !strings.Contains(out, "ATLAS") || !strings.Contains(out, "remote") {
		t.Fatalf("cross-server query: %s", out)
	}
	// The same query paged through a cursor one row per fetch: every
	// chunk is decoded off the wire by the streaming chunk decoder.
	out = gridql("-server", "http://"+jc1Addr, "-stream", "-fetch-size", "1", "SELECT detector FROM runsinfo WHERE run = 101")
	if !strings.Contains(out, "detector\nATLAS\n") || !strings.Contains(out, "(1 rows streamed via remote, 2 server(s), fetch size 1)") {
		t.Fatalf("streamed cross-server query: %s", out)
	}
	// gridql closed its cursor, and the scan took more than one fetch.
	out = gridql("-server", "http://"+jc1Addr, "-cursors")
	if !regexp.MustCompile(`(?m)^  open +0$`).MatchString(out) || !regexp.MustCompile(`(?m)^  fetches +([2-9]|\d\d+)$`).MatchString(out) {
		t.Fatalf("cursors after the stream: %s", out)
	}
	// Cross-server join (mixed route).
	out = gridql("-server", "http://"+jc1Addr,
		"SELECT e.event_id, r.detector FROM events e JOIN runsinfo r ON e.run = r.run ORDER BY e.event_id")
	if !strings.Contains(out, "CMS") || !strings.Contains(out, "3 rows") {
		t.Fatalf("join: %s", out)
	}
	// Schema inspection.
	out = gridql("-server", "http://"+jc1Addr, "-schema", "events")
	if !strings.Contains(out, "event_id") {
		t.Fatalf("schema: %s", out)
	}
}

func TestEtlctlEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-level test")
	}
	bins := buildCmds(t, "etlctl")

	// Build a source snapshot file the daemon can host: use the library to
	// create a normalized source + empty warehouse, saved as snapshots.
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "src.gridsql")
	whPath := filepath.Join(dir, "wh.gridsql")
	martPath := filepath.Join(dir, "mart.gridsql")

	mkSnapshot(t, srcPath, "mysql", "CREATE TABLE `nt_meta` (`ntuple_id` BIGINT PRIMARY KEY, `name` VARCHAR(64), `nvar` BIGINT, `nevents` BIGINT);"+
		"INSERT INTO `nt_meta` VALUES (1, 'nt', 2, 3);"+
		"CREATE TABLE `nt_vars` (`var_idx` BIGINT PRIMARY KEY, `var_name` VARCHAR(64), `units` VARCHAR(64));"+
		"INSERT INTO `nt_vars` VALUES (0,'v0','GeV'),(1,'v1','GeV');"+
		"CREATE TABLE `nt_events` (`event_id` BIGINT PRIMARY KEY, `run` BIGINT);"+
		"INSERT INTO `nt_events` VALUES (1,100),(2,100),(3,101);"+
		"CREATE TABLE `nt_values` (`event_id` BIGINT, `var_idx` BIGINT, `val` DOUBLE);"+
		"INSERT INTO `nt_values` VALUES (1,0,1.5),(1,1,2.5),(2,0,3.5),(2,1,4.5),(3,0,5.5),(3,1,6.5);")
	mkSnapshot(t, whPath, "oracle", "")
	mkSnapshot(t, martPath, "sqlite", "")

	run := func(args ...string) string {
		out, err := exec.Command(bins["etlctl"], args...).CombinedOutput()
		if err != nil {
			t.Fatalf("etlctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	// Stage 1 against file:// DSNs.
	out := run("-stage", "1", "-src", "file://"+srcPath, "-warehouse", "file://"+whPath,
		"-ntuple", "nt", "-nvar", "2", "-create-views")
	if !strings.Contains(out, "stage 1: 3 rows") {
		t.Fatalf("stage1: %s", out)
	}
	// Stage 2 materializes a run view into the mart.
	out = run("-stage", "2", "-warehouse", "file://"+whPath, "-mart", "file://"+martPath,
		"-mart-dialect", "sqlite", "-view", "v_nt_run100", "-ntuple", "nt", "-nvar", "2")
	if !strings.Contains(out, "stage 2: 2 rows") {
		t.Fatalf("stage2: %s", out)
	}
}

func mkSnapshot(t *testing.T, path, dialectName, script string) {
	t.Helper()
	d, err := sqlengine.DialectByName(dialectName)
	if err != nil {
		t.Fatal(err)
	}
	e := sqlengine.NewEngine(filepath.Base(path), d)
	if script != "" {
		if err := e.ExecScript(script); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}
