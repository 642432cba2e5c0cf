package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ics-forth/perseas/internal/cluster"
	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
)

// startServer runs a memory server on loopback for tool tests.
func startServer(t *testing.T) (*memserver.Server, *transport.TCP) {
	t.Helper()
	srv := memserver.New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = transport.Serve(l, srv) }()
	t.Cleanup(func() { l.Close() })
	cli, err := transport.DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestAuditMirrorsClean(t *testing.T) {
	srvA, cliA := startServer(t)
	srvB, cliB := startServer(t)
	for _, srv := range []*memserver.Server{srvA, srvB} {
		seg, err := srv.Malloc("db", 128<<10)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Write(seg.ID, 4096, []byte("identical")); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := cliA.List()
	if err != nil {
		t.Fatal(err)
	}
	divergent, err := auditMirrors(cliA, cliB, segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(divergent) != 0 {
		t.Errorf("clean mirrors reported %v", divergent)
	}
}

func TestAuditMirrorsDivergence(t *testing.T) {
	srvA, cliA := startServer(t)
	srvB, cliB := startServer(t)
	segA, err := srvA.Malloc("db", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Malloc("db", 1024); err != nil {
		t.Fatal(err)
	}
	if err := srvA.Write(segA.ID, 700, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Malloc("only-here", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Malloc("wrong-size", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Malloc("wrong-size", 128); err != nil {
		t.Fatal(err)
	}

	segs, err := cliA.List()
	if err != nil {
		t.Fatal(err)
	}
	divergent, err := auditMirrors(cliA, cliB, segs)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(divergent, "\n")
	for _, want := range []string{
		"db: first difference at byte 700",
		"only-here: missing on peer",
		"wrong-size: size 128 vs 64",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("audit missing %q in:\n%s", want, joined)
		}
	}
}

func TestRenderNode(t *testing.T) {
	srv, cli := startServer(t)
	seg, err := srv.Malloc("db", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Write(seg.ID, 0, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Connect("db"); err != nil {
		t.Fatal(err)
	}
	stats, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	segs, err := cli.List()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	renderNode(&sb, "test-node", stats, segs)
	out := sb.String()
	for _, want := range []string{
		"node test-node: 1 segments, 2048 bytes exported",
		"1 mallocs",
		"1 connects",
		"CONNS",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// startListener runs a memory server on loopback and returns its
// address (no client side).
func startListener(t *testing.T) string {
	t.Helper()
	srv := memserver.New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = transport.Serve(l, srv) }()
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

func TestRenderMirrorsAllHealthy(t *testing.T) {
	a, b := startListener(t), startListener(t)
	var sb strings.Builder
	healthy, err := renderMirrors(&sb, a+","+b)
	if err != nil {
		t.Fatal(err)
	}
	if !healthy {
		t.Fatalf("healthy=false for live mirrors:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{"MIRRORS:", "SLOT", a, b, "healthy", "all 2 mirrors healthy"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderMirrorsUnreachableNode(t *testing.T) {
	a := startListener(t)
	// An address nothing listens on: reserve a port, then free it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()

	var sb strings.Builder
	healthy, err := renderMirrors(&sb, a+","+deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	if healthy {
		t.Fatalf("healthy=true with an unreachable node:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{"MIRRORS:", a, deadAddr, "dead", "DEGRADED"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderMirrorsNoAddresses(t *testing.T) {
	var sb strings.Builder
	if _, err := renderMirrors(&sb, " , "); err == nil {
		t.Error("empty -mirrors accepted")
	}
}

// startShard boots one complete PERSEAS instance on nMirrors loopback
// servers and returns its mirror addresses plus the live library.
func startShard(t *testing.T, nMirrors int) ([]string, *core.Library, []net.Listener) {
	t.Helper()
	var addrs []string
	var mirrors []netram.Mirror
	var listeners []net.Listener
	for i := 0; i < nMirrors; i++ {
		srv := memserver.New()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = transport.Serve(l, srv) }()
		t.Cleanup(func() { l.Close() })
		listeners = append(listeners, l)
		tr, err := transport.DialTCP(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		addrs = append(addrs, l.Addr().String())
		mirrors = append(mirrors, netram.Mirror{Name: l.Addr().String(), T: tr})
	}
	ram, err := netram.NewClient(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := core.Init(ram, simclock.NewWall())
	if err != nil {
		t.Fatal(err)
	}
	return addrs, lib, listeners
}

func TestRenderShardsHealthy(t *testing.T) {
	addrs0, lib0, _ := startShard(t, 2)
	addrs1, lib1, _ := startShard(t, 2)

	// Shard 0 carries two databases and two open transactions. One is
	// prepared — caught mid-commit, its undo record on the mirror and its
	// commit word not — and is what INFLIGHT counts; the other has only
	// declared a range, which sends nothing, and must not show.
	for _, name := range []string{"users", "orders"} {
		if _, err := lib0.CreateDB(name, 8192); err != nil {
			t.Fatal(err)
		}
	}
	db, err := lib0.OpenDB("users")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := lib0.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(db, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Abort() }()
	declaring, err := lib0.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := declaring.SetRange(db, 4096, 64); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = declaring.Abort() }()
	if _, err := lib1.CreateDB("inventory", 4096); err != nil {
		t.Fatal(err)
	}

	spec := strings.Join(addrs0, ",") + ";" + strings.Join(addrs1, ",")
	var sb strings.Builder
	healthy, err := renderShards(&sb, spec)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !healthy {
		t.Errorf("fully live deployment reported unhealthy:\n%s", out)
	}
	for _, want := range []string{
		"SHARDS:",
		"SHARD", "MIRRORS", "LIVE", "INFLIGHT",
		"2/2", "healthy",
		"health: all 2 shards healthy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Shard 0: 2 databases, 1 transaction mid-commit. Shard 1: 1 and 0.
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 9 && (f[0] == "0" || f[0] == "1") {
			rows = append(rows, f)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 shard rows, got %d:\n%s", len(rows), out)
	}
	if dbs, inflight := rows[0][6], rows[0][7]; dbs != "2" || inflight != "1" {
		t.Errorf("shard 0 row dbs=%s inflight=%s, want 2 and 1:\n%s", dbs, inflight, out)
	}
	if dbs, inflight := rows[1][6], rows[1][7]; dbs != "1" || inflight != "0" {
		t.Errorf("shard 1 row dbs=%s inflight=%s, want 1 and 0:\n%s", dbs, inflight, out)
	}
}

func TestRenderShardsDegraded(t *testing.T) {
	addrs0, _, listeners := startShard(t, 2)
	addrs1, _, _ := startShard(t, 2)
	listeners[1].Close()

	spec := strings.Join(addrs0, ",") + ";" + strings.Join(addrs1, ",")
	var sb strings.Builder
	healthy, err := renderShards(&sb, spec)
	if err != nil {
		t.Fatal(err)
	}
	if healthy {
		t.Errorf("shard with a dead mirror reported healthy:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "DEGRADED") {
		t.Errorf("output missing DEGRADED:\n%s", sb.String())
	}
}

func TestRenderShardsNoAddresses(t *testing.T) {
	var sb strings.Builder
	if _, err := renderShards(&sb, " ; , "); err == nil {
		t.Error("empty shard spec should fail")
	}
}

func TestRenderTraces(t *testing.T) {
	// Record a tiny transaction tree plus an infrastructure span, write
	// it as a trace-event file, and render it back.
	rec := trace.NewRecorder()
	rec.Enable()
	tt := rec.Tx()
	root := tt.Start(trace.LayerEngine, "tx")
	tt.Start(trace.LayerCore, "local_undo_copy").EndN(512)
	root.End()
	tt.Finish()
	rec.Start(trace.LayerTransport, "combine").EndN(3)

	path := filepath.Join(t.TempDir(), "run.trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChromeTrace(f, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := renderTraces(&sb, path, 5); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"slowest transactions", "tx", "local_undo_copy"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRenderTracesMergesCaptures: a client capture and a server capture
// of the same transaction merge into one tree, and the report counts
// the stitched transaction.
func TestRenderTracesMergesCaptures(t *testing.T) {
	writeCapture := func(name string, rec *trace.Recorder) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteChromeTrace(f, rec.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	cli := trace.NewRecorder()
	cli.SetProcess("client")
	cli.Enable()
	tt := cli.Tx()
	root := tt.Start(trace.LayerClient, "tx")
	rtt := tt.Start(trace.LayerClient, "commit_rtt")
	traceID, parent := tt.Trace(), rtt.ID()

	srv := trace.NewRecorder()
	srv.SetProcess("server")
	srv.Enable()
	srv.LinkedSpanFrom(trace.LayerServer, "serve_commit", traceID, parent).End()

	rtt.End()
	root.End()
	tt.Finish()

	var sb strings.Builder
	err := renderTraces(&sb,
		writeCapture("client.json", cli)+","+writeCapture("server.json", srv), 5)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "stitched: 1 cross-process transaction(s) across 2 capture(s)") {
		t.Errorf("report missing the stitched count:\n%s", out)
	}
	if !strings.Contains(out, "serve_commit") {
		t.Errorf("merged report missing the server span:\n%s", out)
	}
}

// TestRenderClusterOnce: the -cluster view fetches the snapshot over
// HTTP and renders the terminal table.
func TestRenderClusterOnce(t *testing.T) {
	snap := cluster.Snapshot{
		Shards: []cluster.ShardStatus{{Label: "shard0", Begun: 3, Committed: 2}},
		Flight: 4,
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/cluster" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(snap)
	}))
	defer hs.Close()

	var sb strings.Builder
	// A bare host:port must grow the scheme and the /debug/cluster path.
	if err := renderCluster(&sb, strings.TrimPrefix(hs.URL, "http://"), 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shard0", "flight events: 4"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("cluster view missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRenderTracesRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := renderTraces(&sb, path, 5); err == nil {
		t.Error("garbage trace file accepted")
	}
}
