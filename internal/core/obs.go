package core

import "github.com/ics-forth/perseas/internal/obs"

// CommitMetrics breaks a transaction's cost into the phases the code
// has: the local before-image copy (step 1 of the paper's Fig. 3) and the
// one mirror exchange that carries steps 2 and 3 and the commit word. The
// time histograms hold nanoseconds of clock delta — on a simulated clock
// that is exactly the modelled time, and the instrumentation only ever
// reads the clock, so the reproduced figures are identical with or
// without it.
type CommitMetrics struct {
	// LocalCopy is SetRange's step 1: before-image into the local undo
	// slot.
	LocalCopy obs.Histogram
	// Push is one successful commit-path batch, dispatch to join: a
	// Commit's undo records, ranges and word; a Prepare's records and
	// ranges; a CommitPrepared's word; an Abort's repair and retire.
	// PushEntries and PushBytes are what it carried.
	Push        obs.Histogram
	PushEntries obs.Histogram
	PushBytes   obs.Histogram
	// CommitTotal is a whole successful Commit call (Prepare to
	// CommitPrepared, for the two-phase form).
	CommitTotal obs.Histogram
	// Repairs counts ranges re-pushed by Abort after a failed commit
	// push, restoring mirror/local agreement.
	Repairs obs.Counter
}

// RecoveryMetrics breaks a crash recovery into the phases of its
// pipeline, one histogram per phase span — the same six at every quorum
// and width — and counts what the election found to do. Histograms hold
// nanoseconds of clock delta; the clock is only ever read, so
// instrumentation never shifts modelled time.
type RecoveryMetrics struct {
	// MetaFetch is metadata reconnect plus one read of the region from
	// every reachable mirror.
	MetaFetch obs.Histogram
	// SlotConnect is undo-slot reconnection plus the commit-word election.
	SlotConnect obs.Histogram
	// DBFetch is database reconnection and full-image fetch.
	DBFetch obs.Histogram
	// SlotScan is the per-slot, per-mirror head-transaction scans and the
	// log election.
	SlotScan obs.Histogram
	// Repair is winner fetches and local restores: rollbacks and forward
	// repairs, staged.
	Repair obs.Histogram
	// Republish is one ordered batch (log spans, data, commit words) and
	// the tail clearing, per mirror found to differ; near zero when the
	// mirrors agree.
	Republish obs.Histogram
	// RecoverTotal is a whole successful Recover call.
	RecoverTotal obs.Histogram
	// SlotsForward counts undo slots whose committed head transaction
	// some reachable mirror lacked and was sent; SlotsRolledBack slots
	// whose in-flight head transaction was rolled back; SlotsRepublished
	// slots whose commit word or log some reachable mirror held
	// differently from the elected one. All zero after a crash that
	// left the mirrors agreeing.
	SlotsForward     obs.Counter
	SlotsRolledBack  obs.Counter
	SlotsRepublished obs.Counter
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
	reg.RegisterHistogram(prefix+"_commit_push_ns", "one commit-path batch (undo records, ranges, commit word), dispatch to join", &m.Push)
	reg.RegisterHistogram(prefix+"_commit_push_entries", "entries per commit-path batch", &m.PushEntries)
	reg.RegisterHistogram(prefix+"_commit_push_bytes", "payload bytes per commit-path batch", &m.PushBytes)
	reg.RegisterHistogram(prefix+"_commit_total_ns", "whole successful Commit call", &m.CommitTotal)
	reg.RegisterCounter(prefix+"_abort_mirror_repairs_total", "ranges re-pushed by Abort after a failed Commit", &m.Repairs)
	rm := &l.recMetrics
	reg.RegisterHistogram(prefix+"_recover_meta_fetch_ns", "recovery metadata reconnect + one read per mirror", &rm.MetaFetch)
	reg.RegisterHistogram(prefix+"_recover_slot_connect_ns", "recovery undo-slot reconnect + commit-word election", &rm.SlotConnect)
	reg.RegisterHistogram(prefix+"_recover_db_fetch_ns", "recovery database reconnect + image fetch", &rm.DBFetch)
	reg.RegisterHistogram(prefix+"_recover_slot_scan_ns", "recovery per-mirror undo-log head scans + log election", &rm.SlotScan)
	reg.RegisterHistogram(prefix+"_recover_repair_ns", "recovery staged rollbacks and forward repairs", &rm.Repair)
	reg.RegisterHistogram(prefix+"_recover_republish_ns", "recovery republish to the mirrors found to differ", &rm.Republish)
	reg.RegisterHistogram(prefix+"_recover_total_ns", "whole successful Recover call", &rm.RecoverTotal)
	reg.RegisterCounter(prefix+"_recover_slots_forward_total", "undo slots whose committed head transaction was sent to mirrors lacking it", &rm.SlotsForward)
	reg.RegisterCounter(prefix+"_recover_slots_rolled_back_total", "undo slots whose in-flight head transaction was rolled back", &rm.SlotsRolledBack)
	reg.RegisterCounter(prefix+"_recover_slots_republished_total", "undo slots whose commit word or log a reachable mirror held differently", &rm.SlotsRepublished)
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
		{Name: "repair", Snap: m.Repair.Snapshot()},
		{Name: "republish", Snap: m.Republish.Snapshot()},
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
		{Name: "commit push", Snap: m.Push.Snapshot()},
		{Name: "commit total", Snap: m.CommitTotal.Snapshot()},
	}
}
