// Package cluster aggregates the health of a whole PERSEAS
// installation — front-door server, every shard's engine, every
// shard's mirror set — into one structured snapshot. The snapshot
// serves as JSON at /debug/cluster on the metrics mux and renders as a
// terminal table for perseas-inspect -watch, so "is the cluster
// healthy and where is it hurting" is one request instead of a scrape
// of N Prometheus endpoints.
//
// Everything here is read-only: a snapshot samples counters, gauges
// and histogram snapshots that already exist, so taking one never
// perturbs the data path (and in particular never advances a
// simulated clock).
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/guardian"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/txserver"
)

// ShardSource is one shard's handles, wired at startup.
type ShardSource struct {
	// Label names the shard in output ("shard0", or "perseas" for an
	// unsharded engine).
	Label string
	// Lib is the shard's engine.
	Lib *core.Library
	// Net is the shard's network-RAM client; nil falls back to
	// Lib.Net().
	Net *netram.Client
	// Guard is the shard's failure detector, nil when none runs.
	Guard *guardian.Guardian
}

// Config wires the snapshot's sources. Every field except Shards is
// optional.
type Config struct {
	// Server is the front-door transaction server, when one runs in
	// this process.
	Server *txserver.Server
	// Shards are the engine instances this process hosts.
	Shards []ShardSource
	// Flight contributes the anomaly volume counters.
	Flight *flight.Recorder
	// Clock stamps the snapshot; nil leaves At zero.
	Clock simclock.Clock
}

// MirrorStatus is one mirror slot's health.
type MirrorStatus struct {
	Slot int    `json:"slot"`
	Name string `json:"name"`
	Down bool   `json:"down"`
	// CatchUpPending is the depth of the slot's sender queue: how many
	// quorum writes it is behind (on all-ack configurations, at most the
	// pushes in flight).
	CatchUpPending int `json:"catchup_pending"`
	// State is the guardian's view ("healthy", "suspect", ...); empty
	// when no guardian watches this shard.
	State string `json:"state,omitempty"`
}

// PhaseLatency is one commit-path phase's distribution, in
// nanoseconds.
type PhaseLatency struct {
	Phase string  `json:"phase"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_ns"`
	P99   float64 `json:"p99_ns"`
	P999  float64 `json:"p999_ns"`
}

// ShardStatus is one shard's snapshot.
type ShardStatus struct {
	Label     string `json:"label"`
	Begun     uint64 `json:"txs_begun"`
	Committed uint64 `json:"txs_committed"`
	Aborted   uint64 `json:"txs_aborted"`
	Conflicts uint64 `json:"conflicts"`
	// ConflictClaims is the conflict table's live range-claim count.
	ConflictClaims int            `json:"conflict_claims"`
	Mirrors        []MirrorStatus `json:"mirrors"`
	Phases         []PhaseLatency `json:"phases"`
}

// ServerStatus is the front door's snapshot.
type ServerStatus struct {
	Conns         uint64 `json:"conns_total"`
	ConnsRejected uint64 `json:"conns_rejected"`
	Requests      uint64 `json:"requests_total"`
	Busy          uint64 `json:"busy_total"`
	Malformed     uint64 `json:"malformed_total"`
	TxsInFlight   uint64 `json:"txs_in_flight"`
	// PipelineP50/P99 sample the per-connection in-flight depth
	// distribution.
	PipelineP50 float64 `json:"pipeline_depth_p50"`
	PipelineP99 float64 `json:"pipeline_depth_p99"`
	// Convoys and ConvoyMax describe group-commit batching.
	Convoys   uint64 `json:"convoys"`
	ConvoyMax uint64 `json:"convoy_max"`
}

// Snapshot is the whole cluster view.
type Snapshot struct {
	At      time.Duration `json:"at_ns"`
	Server  *ServerStatus `json:"server,omitempty"`
	Shards  []ShardStatus `json:"shards"`
	Flight  uint64        `json:"flight_events"`
	Dropped uint64        `json:"flight_dropped"`
}

// Snapshot samples every configured source.
func (c *Config) Snapshot() Snapshot {
	var snap Snapshot
	if c.Clock != nil {
		snap.At = c.Clock.Now()
	}
	if c.Server != nil {
		m := c.Server.Metrics()
		depth := m.Depth.Snapshot()
		batch := m.Batch.Snapshot()
		snap.Server = &ServerStatus{
			Conns:         m.ConnsTotal.Load(),
			ConnsRejected: m.ConnsRejected.Load(),
			Requests:      m.Requests.Load(),
			Busy:          m.Busy.Load(),
			Malformed:     m.Malformed.Load(),
			TxsInFlight:   uint64(c.Server.LiveTxs()),
			PipelineP50:   depth.Quantile(0.5),
			PipelineP99:   depth.Quantile(0.99),
			Convoys:       batch.Count,
			ConvoyMax:     batch.Max,
		}
	}
	snap.Shards = make([]ShardStatus, 0, len(c.Shards))
	for _, sh := range c.Shards {
		snap.Shards = append(snap.Shards, shardStatus(sh))
	}
	snap.Flight = c.Flight.Total()
	snap.Dropped = c.Flight.Dropped()
	return snap
}

func shardStatus(sh ShardSource) ShardStatus {
	st := ShardStatus{Label: sh.Label}
	if st.Label == "" {
		st.Label = "perseas"
	}
	if sh.Lib == nil {
		return st
	}
	stats := sh.Lib.Stats()
	st.Begun, st.Committed, st.Aborted, st.Conflicts =
		stats.Begun, stats.Committed, stats.Aborted, stats.Conflicts
	st.ConflictClaims = sh.Lib.ConflictOccupancy()
	for _, row := range sh.Lib.CommitLatencyRows() {
		st.Phases = append(st.Phases, PhaseLatency{
			Phase: row.Name,
			Count: row.Snap.Count,
			P50:   row.Snap.Quantile(0.5),
			P99:   row.Snap.Quantile(0.99),
			P999:  row.Snap.Quantile(0.999),
		})
	}
	net := sh.Net
	if net == nil {
		net = sh.Lib.Net()
	}
	if net == nil {
		return st
	}
	// The guardian's per-slot view, when one watches this shard.
	var health map[int]guardian.MirrorHealth
	if sh.Guard != nil {
		health = make(map[int]guardian.MirrorHealth)
		for _, h := range sh.Guard.Status() {
			health[h.Slot] = h
		}
	}
	for i := 0; i < net.Mirrors(); i++ {
		ms := MirrorStatus{
			Slot:           i,
			Name:           net.MirrorName(i),
			Down:           net.MirrorDown(i),
			CatchUpPending: net.CatchUpPending(i),
		}
		if h, ok := health[i]; ok {
			ms.State = h.State.String()
		}
		st.Mirrors = append(st.Mirrors, ms)
	}
	return st
}

// WriteJSON writes one indented snapshot document.
func (c *Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}

// ServeHTTP implements http.Handler: mount the config at
// /debug/cluster next to the metrics registry.
func (c *Config) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = c.WriteJSON(w)
}

// WriteTable renders snap as the terminal view perseas-inspect -watch
// refreshes: one server block, then per-shard mirror and latency
// tables.
func WriteTable(w io.Writer, snap Snapshot) {
	if snap.Server != nil {
		s := snap.Server
		fmt.Fprintf(w, "front door: %d conns (%d rejected), %d reqs, %d busy, %d in-flight txs\n",
			s.Conns, s.ConnsRejected, s.Requests, s.Busy, s.TxsInFlight)
		fmt.Fprintf(w, "  pipeline depth p50/p99: %.0f/%.0f   convoys: %d (max %d)\n",
			s.PipelineP50, s.PipelineP99, s.Convoys, s.ConvoyMax)
	}
	for _, sh := range snap.Shards {
		fmt.Fprintf(w, "%s: begun %d  committed %d  aborted %d  conflicts %d  claims %d\n",
			sh.Label, sh.Begun, sh.Committed, sh.Aborted, sh.Conflicts, sh.ConflictClaims)
		for _, m := range sh.Mirrors {
			state := m.State
			if state == "" {
				if m.Down {
					state = "down"
				} else {
					state = "up"
				}
			}
			fmt.Fprintf(w, "  mirror %d %-12s %-10s lag %d\n", m.Slot, m.Name, state, m.CatchUpPending)
		}
		for _, p := range sh.Phases {
			fmt.Fprintf(w, "  %-18s n=%-8d p50=%8.1fus p99=%8.1fus p999=%8.1fus\n",
				p.Phase, p.Count, p.P50/1e3, p.P99/1e3, p.P999/1e3)
		}
	}
	fmt.Fprintf(w, "flight events: %d (%d dropped)\n", snap.Flight, snap.Dropped)
}
