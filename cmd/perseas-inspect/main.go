// Command perseas-inspect examines a running remote-memory server: the
// segments it exports, how much memory they pin, and the traffic it has
// absorbed. With -diff it audits two mirror nodes against each other,
// reporting any segment whose contents diverge — useful for checking
// mirror health before taking a node down.
//
//	perseas-inspect -server host1:7070
//	perseas-inspect -server host1:7070 -diff host2:7070
//
// When -server points at a perseas-server -tx transaction front door
// instead of a raw memory node, the tool detects it and renders the
// server's live state — connections, pipeline depth and group-commit
// batch summaries, admission rejections — instead of a segment table:
//
//	perseas-inspect -server host1:7080
//
// With -mirrors, it probes a whole mirror set through the guardian's
// failure detector and renders one health row per node — state, last
// heartbeat, round-trip p99 over ~32 timed probes, degradation count
// and rebuild bytes — exiting non-zero if
// any mirror is unhealthy:
//
//	perseas-inspect -mirrors host1:7070,host2:7070,host3:7070
//
// With -shards, it examines a partitioned deployment — shard mirror
// groups separated by semicolons — and renders one health/topology row
// per shard: mirror liveness, exported regions and bytes, database
// count, transactions caught mid-commit (undo records on the mirror,
// commit word not yet) and the shard's commit word, exiting non-zero unless every shard has its full
// mirror set healthy:
//
//	perseas-inspect -shards "h1:7070,h2:7070;h3:7070,h4:7070"
//
// With -traces, it reads one or more Chrome/Perfetto trace-event files
// written by perseas-stress -trace-out or perseas-bench -trace-out and
// renders the slowest-transactions report without needing a browser.
// Multiple comma-separated captures — say a client-process file and a
// server-process file from the same run — are merged onto a shared
// clock, and the report counts how many transactions stitched across
// processes:
//
//	perseas-inspect -traces client.trace.json,server.trace.json
//
// With -cluster, it fetches a running process's /debug/cluster snapshot
// and renders it as a terminal table; -watch redraws it at an interval,
// turning the tool into a live top-style cluster view:
//
//	perseas-inspect -cluster http://host:9090 -watch 1s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/ics-forth/perseas/internal/cluster"
	"github.com/ics-forth/perseas/internal/guardian"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
	"github.com/ics-forth/perseas/internal/txclient"
	"github.com/ics-forth/perseas/internal/wire"
)

func main() {
	server := flag.String("server", "127.0.0.1:7070", "memory server address")
	diff := flag.String("diff", "", "second server to audit against (compare named segments byte-for-byte)")
	mirrors := flag.String("mirrors", "", "comma-separated mirror set to health-check (renders a MIRRORS section)")
	shards := flag.String("shards", "", "semicolon-separated shard mirror groups to health-check (renders a SHARDS section)")
	traces := flag.String("traces", "", "comma-separated trace-event JSON file(s) (from -trace-out) to merge and render as a slowest-transactions report")
	topK := flag.Int("top", 10, "how many transactions the -traces report ranks")
	clusterURL := flag.String("cluster", "", "fetch a /debug/cluster snapshot from this metrics address or URL and render it")
	watch := flag.Duration("watch", 0, "-cluster: redraw the view at this interval (0 = render once)")
	flag.Parse()

	if *traces != "" {
		if err := renderTraces(os.Stdout, *traces, *topK); err != nil {
			log.Fatalf("perseas-inspect: %v", err)
		}
		return
	}

	if *clusterURL != "" {
		if err := renderCluster(os.Stdout, *clusterURL, *watch); err != nil {
			log.Fatalf("perseas-inspect: %v", err)
		}
		return
	}

	if *shards != "" {
		healthy, err := renderShards(os.Stdout, *shards)
		if err != nil {
			log.Fatalf("perseas-inspect: %v", err)
		}
		if !healthy {
			os.Exit(2)
		}
		return
	}

	if *mirrors != "" {
		healthy, err := renderMirrors(os.Stdout, *mirrors)
		if err != nil {
			log.Fatalf("perseas-inspect: %v", err)
		}
		if !healthy {
			os.Exit(2)
		}
		return
	}

	// A transaction front door and a memory node share the listen-port
	// convention, so probe for the tx API first: a memory node answers
	// the stats opcode with a typed error and the probe falls through.
	if st, ok := probeTxServer(*server); ok {
		renderTxServer(os.Stdout, *server, st)
		return
	}

	cli, err := transport.DialTCP(*server)
	if err != nil {
		log.Fatalf("perseas-inspect: %v", err)
	}
	defer cli.Close()

	if err := cli.Ping(); err != nil {
		log.Fatalf("perseas-inspect: node unreachable: %v", err)
	}
	stats, err := cli.Stats()
	if err != nil {
		log.Fatalf("perseas-inspect: stats: %v", err)
	}
	segs, err := cli.List()
	if err != nil {
		log.Fatalf("perseas-inspect: list: %v", err)
	}

	renderNode(os.Stdout, *server, stats, segs)

	if *diff == "" {
		return
	}
	other, err := transport.DialTCP(*diff)
	if err != nil {
		log.Fatalf("perseas-inspect: dial %s: %v", *diff, err)
	}
	defer other.Close()
	divergent, err := auditMirrors(cli, other, segs)
	if err != nil {
		log.Fatalf("perseas-inspect: audit: %v", err)
	}
	if len(divergent) == 0 {
		fmt.Printf("audit: every named segment matches %s\n", *diff)
		return
	}
	for _, d := range divergent {
		fmt.Printf("audit: DIVERGENT %s\n", d)
	}
	os.Exit(2)
}

// renderTraces loads one or more Chrome trace-event files, merges them
// onto a shared clock, and renders the top-k slowest-transactions
// report. With more than one capture it also reports how many
// transactions stitched across process boundaries — the count a
// distributed capture exists to produce.
func renderTraces(out io.Writer, pathsCSV string, topK int) error {
	var captures [][]trace.Span
	for _, path := range strings.Split(pathsCSV, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		spans, err := trace.ReadChromeTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		captures = append(captures, spans)
	}
	if len(captures) == 0 {
		return fmt.Errorf("-traces: no files given")
	}
	spans := trace.MergeSpans(captures...)
	trace.WriteSlowestReport(out, spans, topK)
	if len(captures) > 1 {
		fmt.Fprintf(out, "stitched: %d cross-process transaction(s) across %d capture(s)\n",
			trace.StitchedTraces(spans), len(captures))
	}
	return nil
}

// renderCluster fetches the /debug/cluster snapshot from a metrics
// address (a bare host:port, or a full URL) and renders it as a
// terminal table; a non-zero watch interval redraws in place forever.
func renderCluster(out io.Writer, target string, watch time.Duration) error {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	if !strings.Contains(target, "/debug/cluster") {
		target = strings.TrimSuffix(target, "/") + "/debug/cluster"
	}
	fetch := func() (cluster.Snapshot, error) {
		var snap cluster.Snapshot
		resp, err := http.Get(target)
		if err != nil {
			return snap, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return snap, fmt.Errorf("%s answered %s", target, resp.Status)
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		return snap, err
	}
	for {
		snap, err := fetch()
		if err != nil {
			return err
		}
		if watch > 0 {
			// Home the cursor and clear: a flicker-free redraw in place.
			fmt.Fprint(out, "\033[H\033[2J")
			fmt.Fprintf(out, "%s — every %v\n\n", target, watch)
		}
		cluster.WriteTable(out, snap)
		if watch <= 0 {
			return nil
		}
		time.Sleep(watch)
	}
}

// probeTxServer asks addr for transaction-server stats on a throwaway
// connection. A raw memory node rejects the opcode, which surfaces as
// an error here — the caller then falls back to the memory-node view.
func probeTxServer(addr string) (*wire.TxStats, bool) {
	cl, err := txclient.Dial(addr, txclient.WithConns(1))
	if err != nil {
		return nil, false
	}
	defer cl.Close()
	st, err := cl.ServerStats()
	if err != nil {
		return nil, false
	}
	return st, true
}

// renderTxServer prints a transaction front door's live state: who is
// connected, how deep the pipelines run, how well group commit is
// batching, and what admission control has pushed back on.
func renderTxServer(out io.Writer, server string, st *wire.TxStats) {
	fmt.Fprintf(out, "tx server %s: %d live conns (%d accepted, %d rejected at the door)\n",
		server, st.Conns, st.ConnsTotal, st.ConnsRejected)
	fmt.Fprintf(out, "transactions: %d begun, %d committed, %d aborted, %d in flight\n",
		st.TxsBegun, st.TxsCommitted, st.TxsAborted, st.TxsInFlight)
	fmt.Fprintf(out, "group commit: %d convoys over %d commits, batch p50/p99/max %d/%d/%d\n",
		st.Convoys, st.ConvoyCommits, st.BatchP50, st.BatchP99, st.BatchMax)
	fmt.Fprintf(out, "pipelining: per-conn depth p50/p99/max %d/%d/%d\n",
		st.DepthP50, st.DepthP99, st.DepthMax)
	fmt.Fprintf(out, "admission: %d busy rejections, %d malformed frames\n",
		st.BusyRejected, st.MalformedFrames)
}

// renderNode prints one server's counters and segment table, including
// how often each lifecycle operation ran and how many client references
// each segment currently holds.
func renderNode(out io.Writer, server string, stats wire.ServerStats, segs []wire.SegmentInfo) {
	fmt.Fprintf(out, "node %s: %d segments, %d bytes exported\n", server, stats.Segments, stats.BytesHeld)
	fmt.Fprintf(out, "traffic: %d writes (%d bytes), %d reads (%d bytes), %d batched exchanges\n",
		stats.WriteOps, stats.BytesWritten, stats.ReadOps, stats.BytesRead, stats.BatchOps)
	fmt.Fprintf(out, "lifecycle: %d mallocs, %d frees, %d connects, %d disconnects\n",
		stats.Mallocs, stats.Frees, stats.Connects, stats.Disconnects)
	if len(segs) > 0 {
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "ID\tSIZE\tCONNS\tNAME")
		for _, s := range segs {
			name := s.Name
			if name == "" {
				name = "(anonymous)"
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", s.ID, s.Size, s.Conns, name)
		}
		w.Flush()
	}
}

// renderMirrors dials every node of a mirror set, runs one pass of the
// guardian failure detector over the reachable ones, and renders one
// health row per node from its Status() API. Nodes that cannot even be
// dialed render as dead. Reports whether every mirror is healthy.
func renderMirrors(out io.Writer, addrsCSV string) (bool, error) {
	var addrs []string
	for _, a := range strings.Split(addrsCSV, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return false, fmt.Errorf("-mirrors: no addresses given")
	}

	// Dial what answers; remember what does not.
	type deadNode struct {
		addr string
		err  error
	}
	var ms []netram.Mirror
	slotAddr := make(map[int]string)
	var unreachable []deadNode
	for _, addr := range addrs {
		tr, err := transport.DialTCP(addr)
		if err != nil {
			unreachable = append(unreachable, deadNode{addr: addr, err: err})
			continue
		}
		defer tr.Close()
		slotAddr[len(ms)] = addr
		ms = append(ms, netram.Mirror{Name: addr, T: tr})
	}

	var rows []guardian.MirrorHealth
	p99 := make(map[int]time.Duration)
	pipeline := 1
	if len(ms) > 0 {
		client, err := netram.NewClient(ms)
		if err != nil {
			return false, err
		}
		pipeline = client.RebuildPipeline()
		clock := simclock.NewWall()
		// Misses=1: a single failed probe is enough for a one-shot
		// health snapshot.
		g, err := guardian.New(client, clock, guardian.Config{Misses: 1})
		if err != nil {
			return false, err
		}
		g.Poll()
		rows = g.Status()
		now := clock.Now()
		for i := range rows {
			rows[i].LastBeat = now - rows[i].LastBeat // age, for display
		}
		// ~32 timed probes per live node feed its per-mirror push
		// histogram, so the table can rank replicas by round-trip tail
		// latency — the straggler a parallel fan-out would wait on.
		m := client.Metrics()
		for slot := range ms {
			for k := 0; k < 32; k++ {
				t0 := time.Now()
				if err := client.ProbeMirror(slot); err != nil {
					break
				}
				m.MirrorPush[slot].ObserveDuration(time.Since(t0))
			}
			if snap := m.MirrorPush[slot].Snapshot(); snap.Count > 0 {
				p99[slot] = time.Duration(snap.Quantile(0.99))
			}
		}
	}
	for _, d := range unreachable {
		rows = append(rows, guardian.MirrorHealth{
			Slot: len(rows), Mirror: d.addr, State: guardian.Dead, LastError: d.err,
		})
	}

	fmt.Fprintln(out, "MIRRORS:")
	fmt.Fprintf(out, "rebuild pipeline: depth %d", pipeline)
	if pipeline <= 1 {
		fmt.Fprint(out, " (sequential bulk copy)")
	} else {
		fmt.Fprint(out, " (read-ahead, striped across survivors)")
	}
	fmt.Fprintln(out)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SLOT\tMIRROR\tSTATE\tLAST-BEAT\tRTT-P99\tCATCH-UP\tDEATHS\tREBUILT\tSRC-READS\tERROR")
	healthy := true
	for i, row := range rows {
		if row.State != guardian.Healthy {
			healthy = false
		}
		beat := "never"
		if row.LastError == nil || row.State == guardian.Healthy {
			beat = fmt.Sprintf("%s ago", row.LastBeat.Round(time.Millisecond))
		}
		errStr := "-"
		if row.LastError != nil {
			errStr = row.LastError.Error()
		}
		addr := row.Mirror
		if a, ok := slotAddr[row.Slot]; ok && row.Slot < len(ms) {
			addr = a
		}
		rtt := "-"
		if d, ok := p99[row.Slot]; ok && row.Slot < len(ms) {
			rtt = d.Round(time.Microsecond).String()
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%d\t%d\t%d B\t%d B\t%s\n",
			i, addr, row.State, beat, rtt, row.CatchUp, row.Deaths, row.RebuildBytes, row.SourceBytes, errStr)
	}
	w.Flush()
	if healthy {
		fmt.Fprintf(out, "health: all %d mirrors healthy\n", len(rows))
	} else {
		fmt.Fprintf(out, "health: DEGRADED — %d node(s) checked, not all healthy\n", len(rows))
	}
	return healthy, nil
}

// auditMirrors compares every named segment of a with its namesake on b,
// chunk by chunk, and describes each divergence.
func auditMirrors(a, b *transport.TCP, segs []wire.SegmentInfo) ([]string, error) {
	const chunk = 64 << 10
	var divergent []string
	for _, s := range segs {
		if s.Name == "" {
			continue // anonymous segments have no cross-node identity
		}
		hb, err := b.Connect(s.Name)
		if err != nil {
			divergent = append(divergent, fmt.Sprintf("%s: missing on peer (%v)", s.Name, err))
			continue
		}
		if hb.Size != s.Size {
			divergent = append(divergent,
				fmt.Sprintf("%s: size %d vs %d", s.Name, s.Size, hb.Size))
			continue
		}
		for off := uint64(0); off < s.Size; off += chunk {
			n := uint32(chunk)
			if rest := s.Size - off; rest < chunk {
				n = uint32(rest)
			}
			da, err := a.Read(s.ID, off, n)
			if err != nil {
				return nil, fmt.Errorf("read %s@%d from primary: %w", s.Name, off, err)
			}
			db, err := b.Read(hb.ID, off, n)
			if err != nil {
				return nil, fmt.Errorf("read %s@%d from peer: %w", s.Name, off, err)
			}
			if !bytes.Equal(da, db) {
				for i := range da {
					if da[i] != db[i] {
						divergent = append(divergent,
							fmt.Sprintf("%s: first difference at byte %d", s.Name, off+uint64(i)))
						break
					}
				}
				break
			}
		}
	}
	return divergent, nil
}
