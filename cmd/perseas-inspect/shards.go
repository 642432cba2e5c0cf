package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/guardian"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// shardReport is one shard's decoded health and topology row.
type shardReport struct {
	mirrors   []string
	live      int
	state     string
	regions   uint64
	bytesHeld uint64
	dbs       int
	inflight  int
	committed uint64
	err       error
}

// parseShardSpec splits "h1,h2;h3,h4" into per-shard mirror address
// groups: shards are separated by semicolons, a shard's mirrors by
// commas.
func parseShardSpec(spec string) ([][]string, error) {
	var shards [][]string
	for _, group := range strings.Split(spec, ";") {
		var addrs []string
		for _, a := range strings.Split(group, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) > 0 {
			shards = append(shards, addrs)
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("-shards: no addresses given")
	}
	return shards, nil
}

// renderShards probes every shard of a partitioned deployment — shard
// groups separated by semicolons, mirrors within a group by commas —
// and renders one topology row per shard: mirror liveness (a one-shot
// guardian pass over the group), exported region count and bytes, the
// database directory decoded from the metadata region, and the number
// of transactions caught mid-commit (undo slots whose remote head record
// outruns the slot's commit word: the records have left the primary, the
// word has not). A transaction that is still declaring and updating
// ranges holds claims but has sent nothing, so it does not show here —
// the primary's conflict-occupancy gauge counts those. Reports whether
// every shard has its full mirror set healthy.
func renderShards(out io.Writer, spec string) (bool, error) {
	groups, err := parseShardSpec(spec)
	if err != nil {
		return false, err
	}

	reports := make([]shardReport, len(groups))
	for s, addrs := range groups {
		reports[s] = probeShard(addrs)
	}

	fmt.Fprintln(out, "SHARDS:")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SHARD\tMIRRORS\tLIVE\tSTATE\tREGIONS\tBYTES\tDBS\tINFLIGHT\tCOMMITTED")
	healthy := true
	for s, r := range reports {
		if r.live < len(r.mirrors) || r.err != nil {
			healthy = false
		}
		detail := fmt.Sprintf("%d/%d", r.live, len(r.mirrors))
		if r.err != nil {
			fmt.Fprintf(w, "%d\t%s\t%s\t%s\t-\t-\t-\t-\t-\n",
				s, strings.Join(r.mirrors, ","), detail, r.err)
			continue
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			s, strings.Join(r.mirrors, ","), detail, r.state,
			r.regions, r.bytesHeld, r.dbs, r.inflight, r.committed)
	}
	w.Flush()
	if healthy {
		fmt.Fprintf(out, "health: all %d shards healthy\n", len(reports))
	} else {
		fmt.Fprintf(out, "health: DEGRADED — %d shard(s) checked, not all healthy\n", len(reports))
	}
	return healthy, nil
}

// probeShard examines one shard's mirror group. Health comes from a
// one-shot guardian pass; topology is decoded from the first reachable
// mirror — every mirror of a shard exports the same region set, so one
// answering node describes the whole shard.
func probeShard(addrs []string) shardReport {
	r := shardReport{mirrors: addrs}
	var ms []netram.Mirror
	var tcps []*transport.TCP
	for _, addr := range addrs {
		tr, err := transport.DialTCP(addr)
		if err != nil {
			continue
		}
		defer tr.Close()
		ms = append(ms, netram.Mirror{Name: addr, T: tr})
		tcps = append(tcps, tr)
	}
	if len(ms) == 0 {
		r.state = "dead"
		r.err = fmt.Errorf("no mirror reachable")
		return r
	}

	client, err := netram.NewClient(ms)
	if err != nil {
		r.err = err
		return r
	}
	g, err := guardian.New(client, simclock.NewWall(), guardian.Config{Misses: 1})
	if err != nil {
		r.err = err
		return r
	}
	g.Poll()
	for _, row := range g.Status() {
		if row.State == guardian.Healthy {
			r.live++
		}
	}
	switch {
	case r.live == len(addrs):
		r.state = "healthy"
	case r.live > 0:
		r.state = "degraded"
	default:
		r.state = "dead"
	}

	cli := tcps[0]
	stats, err := cli.Stats()
	if err != nil {
		r.err = fmt.Errorf("stats: %w", err)
		return r
	}
	r.regions = uint64(stats.Segments)
	r.bytesHeld = stats.BytesHeld

	meta, err := fetchSegment(cli, core.MetaSegmentName(""))
	if err != nil {
		r.err = fmt.Errorf("metadata region: %w", err)
		return r
	}
	info, err := core.InspectMeta(meta)
	if err != nil {
		r.err = fmt.Errorf("decode metadata: %w", err)
		return r
	}
	r.dbs = len(info.DBs)
	r.committed = info.Committed

	// An undo slot whose remote head record carries a transaction id
	// above the slot's commit word was caught mid-commit: records reach
	// the mirror when Commit or Prepare starts, the word when it ends. A
	// nonzero count on an idle shard is a prepared cross-shard
	// transaction, or what the next recovery will roll back.
	for k := 0; k < core.MaxUndoSlots; k++ {
		log, err := fetchSegment(cli, core.UndoSegmentName("", k))
		if err != nil {
			continue // slot never allocated
		}
		if txID, ok := core.UndoHeadTxID(log); ok && txID > core.SlotCommitWord(meta, k) {
			r.inflight++
		}
	}
	return r
}

// fetchSegment connects to a named segment and reads it whole.
func fetchSegment(cli *transport.TCP, name string) ([]byte, error) {
	h, err := cli.Connect(name)
	if err != nil {
		return nil, err
	}
	const chunk = 64 << 10
	buf := make([]byte, h.Size)
	for off := uint64(0); off < h.Size; off += chunk {
		n := uint32(chunk)
		if rest := h.Size - off; rest < chunk {
			n = uint32(rest)
		}
		data, err := cli.Read(h.ID, off, n)
		if err != nil {
			return nil, err
		}
		copy(buf[off:], data)
	}
	return buf, nil
}
