package core

import "github.com/ics-forth/perseas/internal/obs"

// CommitMetrics breaks a transaction's cost into the paper's phases
// (Fig. 3): the local before-image copy, the remote undo-log push that
// opens the commit, the database range push, and the one small remote
// write that publishes the commit word. Every histogram holds nanoseconds of
// clock delta — on a simulated clock that is exactly the modelled
// time, and the instrumentation only ever reads the clock, so the
// reproduced figures are identical with or without it.
type CommitMetrics struct {
	// LocalCopy is SetRange's step 1: before-image into the local undo
	// slot.
	LocalCopy obs.Histogram
	// UndoPush is step 2, run when Commit or Prepare starts: the
	// transaction's log records to the remote undo log as one batch —
	// one observation per transaction, not per range.
	UndoPush obs.Histogram
	// RangePush is Commit's step 3: the modified database ranges to
	// every mirror.
	RangePush obs.Histogram
	// WordPush is the atomic commit point: one 8-byte remote write of
	// the slot's commit word.
	WordPush obs.Histogram
	// CommitTotal is a whole successful Commit call, undo push included.
	CommitTotal obs.Histogram
	// Repairs counts ranges re-pushed by Abort after a partially
	// executed Commit, restoring mirror/local agreement.
	Repairs obs.Counter
}

// RecoveryMetrics breaks a crash recovery into the phases of its
// pipeline, one histogram per phase span: metadata reconnect and
// snapshots, undo-slot reconnect, database image fetch, undo-log scans,
// rollback, staged quorum repair, and the quorum undo republish. Histograms hold nanoseconds of clock delta; the clock is
// only ever read, so instrumentation never shifts modelled time.
type RecoveryMetrics struct {
	// MetaFetch is metadata reconnect, directory fetch and — under
	// quorum — the per-mirror metadata snapshots.
	MetaFetch obs.Histogram
	// SlotConnect is undo-slot reconnection plus commit-word settlement.
	SlotConnect obs.Histogram
	// DBFetch is database reconnection and full-image fetch.
	DBFetch obs.Histogram
	// SlotScan is the per-slot head-transaction undo-log scans.
	SlotScan obs.Histogram
	// Rollback is the all-ack in-flight rollback: local restores, then
	// one acked publish per database.
	Rollback obs.Histogram
	// Repair is the staged quorum repair: winner fetches, local restores
	// and one acked publish per database.
	Repair obs.Histogram
	// Republish is the quorum undo-log republish (winner prefix plus
	// remote tail zeroing).
	Republish obs.Histogram
	// RecoverTotal is a whole successful Recover call.
	RecoverTotal obs.Histogram
}

// Metrics exposes the library's commit-path histograms.
func (l *Library) Metrics() *CommitMetrics { return &l.metrics }

// RecoveryMetrics exposes the library's recovery-phase histograms.
func (l *Library) RecoveryMetrics() *RecoveryMetrics { return &l.recMetrics }

// RegisterMetrics registers the commit-path breakdown and the
// network-RAM client's counters on reg.
func (l *Library) RegisterMetrics(reg *obs.Registry) {
	l.RegisterMetricsPrefixed(reg, "perseas")
}

// RegisterMetricsPrefixed registers the same series under a caller-chosen
// name prefix, so several shard instances can share one registry without
// colliding ("perseas_shard0_commit_total_ns", ...).
func (l *Library) RegisterMetricsPrefixed(reg *obs.Registry, prefix string) {
	m := &l.metrics
	reg.RegisterHistogram(prefix+"_commit_local_copy_ns", "SetRange before-image local copy", &m.LocalCopy)
	reg.RegisterHistogram(prefix+"_commit_undo_push_ns", "Commit/Prepare undo record batch remote push, one per transaction", &m.UndoPush)
	reg.RegisterHistogram(prefix+"_commit_range_push_ns", "Commit database range push", &m.RangePush)
	reg.RegisterHistogram(prefix+"_commit_word_push_ns", "commit word publish", &m.WordPush)
	reg.RegisterHistogram(prefix+"_commit_total_ns", "whole successful Commit call: undo, range and word pushes", &m.CommitTotal)
	reg.RegisterCounter(prefix+"_abort_mirror_repairs_total", "ranges re-pushed by Abort after a failed Commit", &m.Repairs)
	rm := &l.recMetrics
	reg.RegisterHistogram(prefix+"_recover_meta_fetch_ns", "recovery metadata reconnect + snapshots", &rm.MetaFetch)
	reg.RegisterHistogram(prefix+"_recover_slot_connect_ns", "recovery undo-slot reconnect + word settlement", &rm.SlotConnect)
	reg.RegisterHistogram(prefix+"_recover_db_fetch_ns", "recovery database reconnect + image fetch", &rm.DBFetch)
	reg.RegisterHistogram(prefix+"_recover_slot_scan_ns", "recovery undo-log head scans", &rm.SlotScan)
	reg.RegisterHistogram(prefix+"_recover_rollback_ns", "recovery in-flight rollback + repair publish", &rm.Rollback)
	reg.RegisterHistogram(prefix+"_recover_quorum_repair_ns", "recovery staged quorum repair", &rm.Repair)
	reg.RegisterHistogram(prefix+"_recover_undo_republish_ns", "recovery quorum undo-log republish", &rm.Republish)
	reg.RegisterHistogram(prefix+"_recover_total_ns", "whole successful Recover call", &rm.RecoverTotal)
	reg.RegisterGauge(prefix+"_recover_parallelism", "width of the recovery pipeline (1 = inline)", func() uint64 {
		if l.recoveryWorkers > 1 {
			return uint64(l.recoveryWorkers)
		}
		return 1
	})
	l.net.RegisterMetricsPrefixed(reg, prefix+"_netram")
}

// RecoveryLatencyRows renders the recovery-phase breakdown as table rows
// for perseas-recover and perseas-bench.
func (l *Library) RecoveryLatencyRows() []obs.LatencyRow {
	m := &l.recMetrics
	return []obs.LatencyRow{
		{Name: "meta fetch", Snap: m.MetaFetch.Snapshot()},
		{Name: "slot connect", Snap: m.SlotConnect.Snapshot()},
		{Name: "db fetch", Snap: m.DBFetch.Snapshot()},
		{Name: "slot scan", Snap: m.SlotScan.Snapshot()},
		{Name: "rollback", Snap: m.Rollback.Snapshot()},
		{Name: "quorum repair", Snap: m.Repair.Snapshot()},
		{Name: "undo republish", Snap: m.Republish.Snapshot()},
		{Name: "recover total", Snap: m.RecoverTotal.Snapshot()},
	}
}

// ConflictOccupancy reports how many range claims live transactions
// currently hold in the conflict table — a direct gauge of write-set
// pressure and a leading indicator of conflict-abort storms.
func (l *Library) ConflictOccupancy() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, claims := range l.locks.byDB {
		n += len(claims)
	}
	return n
}

// CommitLatencyRows renders the commit-path breakdown as table rows
// for perseas-bench and perseas-stress.
func (l *Library) CommitLatencyRows() []obs.LatencyRow {
	m := &l.metrics
	return []obs.LatencyRow{
		{Name: "local undo copy", Snap: m.LocalCopy.Snapshot()},
		{Name: "remote undo push", Snap: m.UndoPush.Snapshot()},
		{Name: "db range push", Snap: m.RangePush.Snapshot()},
		{Name: "commit word push", Snap: m.WordPush.Snapshot()},
		{Name: "commit total", Snap: m.CommitTotal.Snapshot()},
	}
}
