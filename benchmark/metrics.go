package main

import (
	"fmt"
	"io"
	"sort"
	"syscall"
)

// metricSpec declares one metric: the name later issues cite, its unit
// and which direction is better. BENCHMARK.json lists the same names;
// TestManifestMatchesEmittedNames fails when the two drift apart.
type metricSpec struct {
	Name, Unit, Better string
	// Bound (end-to-end only) is the share of the parent's median by
	// which the metric may worsen before -compare calls it a regression.
	Bound float64
}

// endToEndSpecs are what a user of the system sees. Every workload
// reports every one of them:
//
//   - the three transaction workloads measure the transaction metrics
//     over their timed window and recovery_ms over the crash + Attach
//     repetitions that follow it (a database of their size, two
//     transactions in flight);
//   - recover-attach measures recovery_ms over its repetitions and the
//     transaction metrics over the 200 transactions each repetition
//     commits before its crash.
var endToEndSpecs = []metricSpec{
	{Name: "commit_tps", Unit: "tx/s", Better: "higher", Bound: 0.25},
	{Name: "tx_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "tx_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "recovery_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_tx", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerSpecs are the single-layer metrics of the traced run. A layer
// that is not on a workload's path reports 0 there (txclient and
// txserver on the in-process workloads, the scale.* comparison anywhere
// but remote-debitcredit).
var perLayerSpecs = []metricSpec{
	// txclient: the benchmark's own timed calls; Client.Metrics().
	{Name: "txclient.begin_us_p50", Unit: "us", Better: "lower"},
	{Name: "txclient.setrange_us_p50", Unit: "us", Better: "lower"},
	{Name: "txclient.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "txclient.commit_us_p99", Unit: "us", Better: "lower"},
	{Name: "txclient.calls_per_tx", Unit: "count", Better: "lower"},
	{Name: "txclient.busy_retries", Unit: "count", Better: "lower"},
	{Name: "txclient.overhead_us_per_tx_p50", Unit: "us", Better: "lower"},
	// txserver: Server.Stats() — counts the program makes itself.
	{Name: "txserver.commits_per_convoy", Unit: "count", Better: "higher"},
	{Name: "txserver.batch_max", Unit: "count", Better: "higher"},
	{Name: "txserver.depth_p99", Unit: "count", Better: "lower"},
	{Name: "txserver.busy_rejected", Unit: "count", Better: "lower"},
	// wire: direct probe.
	{Name: "wire.encode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_64k_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_64k_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.roundtrip_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.overhead_bytes_small", Unit: "B", Better: "lower"},
	// core: timed calls (in-process) or the engine decorator (remote);
	// Library.Stats().
	{Name: "core.begin_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.setrange_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.commit_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.self_us_per_tx_p50", Unit: "us", Better: "lower"},
	{Name: "core.bytes_logged_per_tx", Unit: "B", Better: "lower"},
	{Name: "core.conflicts", Unit: "count", Better: "lower"},
	{Name: "core.aborted", Unit: "count", Better: "lower"},
	{Name: "core.attach_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.rolled_back_txs", Unit: "count", Better: "lower"},
	// netram: Client.Stats()/Metrics(); direct probe.
	{Name: "netram.pushes_per_tx", Unit: "count", Better: "lower"},
	{Name: "netram.wire_bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "netram.retries", Unit: "count", Better: "lower"},
	{Name: "netram.degradations", Unit: "count", Better: "lower"},
	{Name: "netram.push_64b_us_p50", Unit: "us", Better: "lower"},
	{Name: "netram.push_64k_us_p50", Unit: "us", Better: "lower"},
	{Name: "netram.fanout_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "netram.fetch_mib_s", Unit: "MiB/s", Better: "higher"},
	// transport: the decorator; TCP.Metrics().BatchSize. Per mirror.
	{Name: "transport.exchanges_per_tx", Unit: "count", Better: "lower"},
	{Name: "transport.write_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.write_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "transport.blocked_us_per_tx_p50", Unit: "us", Better: "lower"},
	{Name: "transport.entries_per_exchange", Unit: "count", Better: "higher"},
	{Name: "transport.read_calls", Unit: "count", Better: "lower"},
	{Name: "transport.read_mib_s", Unit: "MiB/s", Better: "higher"},
	{Name: "transport.errors", Unit: "count", Better: "lower"},
	// memserver: Server.Stats() (per mirror); direct probe.
	{Name: "memserver.write_ops_per_tx", Unit: "count", Better: "lower"},
	{Name: "memserver.batch_ops_per_tx", Unit: "count", Better: "lower"},
	{Name: "memserver.bytes_written_per_tx", Unit: "B", Better: "lower"},
	{Name: "memserver.write_64b_ns", Unit: "ns", Better: "lower"},
	{Name: "memserver.write_64k_ns", Unit: "ns", Better: "lower"},
	{Name: "memserver.read_16m_ms", Unit: "ms", Better: "lower"},
	// process: runtime.MemStats, getrusage; the ungated tails.
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.cpu_busy_cores", Unit: "count", Better: "lower"},
	{Name: "process.tx_p999_us", Unit: "us", Better: "lower"},
	{Name: "process.recovery_p75_ms", Unit: "ms", Better: "lower"},
	{Name: "process.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.dropped_spans", Unit: "count", Better: "lower"},
	// scale: remote-debitcredit traced with one client and with two —
	// what ROADMAP item 1 asks (which bar stops the second client from
	// doubling throughput).
	{Name: "scale.tps_1c", Unit: "tx/s", Better: "higher"},
	{Name: "scale.tps_2c", Unit: "tx/s", Better: "higher"},
	{Name: "scale.tx_p50_us_1c", Unit: "us", Better: "lower"},
	{Name: "scale.tx_p50_us_2c", Unit: "us", Better: "lower"},
	{Name: "scale.engine_us_per_tx_p50_1c", Unit: "us", Better: "lower"},
	{Name: "scale.engine_us_per_tx_p50_2c", Unit: "us", Better: "lower"},
	{Name: "scale.exchange_us_p50_1c", Unit: "us", Better: "lower"},
	{Name: "scale.exchange_us_p50_2c", Unit: "us", Better: "lower"},
	{Name: "scale.cpu_busy_cores_1c", Unit: "count", Better: "lower"},
	{Name: "scale.cpu_busy_cores_2c", Unit: "count", Better: "lower"},
}

// metricValue is one measured value as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects one run's metrics by name; emit turns it into the
// output map, insisting that exactly the declared names were set.
type values map[string]float64

func (v values) emit(specs []metricSpec) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		x, ok := v[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: x, Unit: s.Unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// peakRSSMiB is the process's resident-set high-water mark (what
// /proc/self/status calls VmHWM), which Linux reports to getrusage in
// KiB.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

func medianNS(ns []int64) int64 { return percentile(sortedCopy(ns), 50) }

// endToEnd derives the gated metrics from an untraced phase.
func endToEnd(p *phaseResult) (values, error) {
	if p.commits == 0 || len(p.lat) == 0 || len(p.recoverNS) == 0 || len(p.setupNS) == 0 {
		return nil, fmt.Errorf("nothing measured: %d commits, %d attaches, %d set-ups", p.commits, len(p.recoverNS), len(p.setupNS))
	}
	return values{
		"commit_tps":         p.tps(),
		"tx_p50_us":          usOf(percentile(p.lat, 50)),
		"tx_p99_us":          usOf(percentile(p.lat, 99)),
		"recovery_ms":        msOf(medianNS(p.recoverNS)),
		"alloc_bytes_per_tx": float64(p.allocBytes) / float64(p.commits),
		"peak_rss_mib":       p.peakRSS,
		"setup_s":            float64(medianNS(p.setupNS)) / 1e9,
	}, nil
}

// per divides, returning 0 for an empty denominator.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50us(sorted []int64) float64 { return usOf(percentile(sorted, 50)) }
func p99us(sorted []int64) float64 { return usOf(percentile(sorted, 99)) }

// waterfall is the printed per-layer budget of one single-client
// workload: bars that should add up to the run's own median.
type waterfall struct {
	Title  string
	Unit   string
	Bars   []bar
	Median float64
	N      int
}

type bar struct {
	Name  string
	Value float64
}

func (w waterfall) sum() float64 {
	var s float64
	for _, b := range w.Bars {
		s += b.Value
	}
	return s
}

// complete reports whether the bars account for the median to within
// 5 %: they are medians of per-transaction parts, so they need not add
// up exactly, and when they do not the attribution is not trusted.
func (w waterfall) complete() bool {
	if w.Median == 0 {
		return false
	}
	d := w.sum()/w.Median - 1
	return d > -0.05 && d < 0.05
}

func (w waterfall) print(out io.Writer) {
	fmt.Fprintf(out, "\n%s (n=%d)\n", w.Title, w.N)
	for _, b := range w.Bars {
		fmt.Fprintf(out, "  %-44s %12.2f %s  %5.1f%%\n", b.Name, b.Value, w.Unit, 100*per(b.Value, w.Median))
	}
	verdict := "attribution complete"
	if !w.complete() {
		verdict = "ATTRIBUTION INCOMPLETE (bars miss the median by more than 5%)"
	}
	fmt.Fprintf(out, "  %-44s %12.2f %s  vs median %.2f %s: %s\n", "sum of bars", w.sum(), w.Unit, w.Median, w.Unit, verdict)
}

// engineLevelOf returns the span class that marks "inside the engine"
// for a phase: the engine decorator's spans behind the front door, the
// benchmark's own calls when the library is linked in-process.
func engineLevelOf(p *phaseResult) func(spanKind) bool {
	if p.remote {
		return spanKind.isEngine
	}
	return spanKind.isCall
}

// engineTxTimes sums the engine decorator's spans per engine
// transaction (its calls are sequential, so the sum is the time the
// transaction spent inside the engine), sorted.
func engineTxTimes(all []span) []int64 {
	sums := map[uint64]int64{}
	done := map[uint64]bool{}
	for _, s := range all {
		if s.Kind.isEngine() {
			sums[s.Tx] += s.dur()
			if s.Kind == kEngCommit {
				done[s.Tx] = true
			}
		}
	}
	var out []int64
	for tx := range done {
		out = append(out, sums[tx])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeDurations are the durations of every write exchange, sorted.
func writeDurations(all []span) []int64 {
	var out []int64
	for _, s := range all {
		if s.Kind == kXWrite || s.Kind == kXWriteBatch {
			out = append(out, s.dur())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// perLayer derives the traced run's metrics. u is the untraced phase of
// the same process (overhead baseline and the ungated tails), t the
// traced one, one the single-client traced phase of remote-debitcredit
// (nil elsewhere), pr the direct probes.
func perLayer(u, t, one *phaseResult, pr *probeResult) (values, []waterfall) {
	v := values{}
	for _, s := range perLayerSpecs {
		v[s.Name] = 0
	}
	tx := float64(t.commits)
	mirrors := float64(numMirrors)

	// Where exactly one client ran, spans can be attributed to
	// transactions; for remote-debitcredit that is its one-client phase.
	single := t
	if t.clients > 1 {
		single = one
	}
	var falls []waterfall
	if single != nil {
		bs := breakdowns(single.spans, kTx, engineLevelOf(single))
		if len(bs) > 0 {
			front := p50us(pick(bs, func(b breakdown) int64 { return b.FrontDoor }))
			self := p50us(pick(bs, func(b breakdown) int64 { return b.CoreSelf }))
			blocked := p50us(pick(bs, func(b breakdown) int64 { return b.Transport }))
			frontName := "benchmark loop body (no front door)"
			if single.remote {
				v["txclient.overhead_us_per_tx_p50"] = front
				frontName = "front door: txclient+wire+socket+txserver"
			}
			v["core.self_us_per_tx_p50"] = self
			v["transport.blocked_us_per_tx_p50"] = blocked
			falls = append(falls, waterfall{
				Title: fmt.Sprintf("waterfall: one transaction, %d client(s), traced", single.clients), Unit: "us",
				Bars: []bar{
					{frontName, front},
					{"core self: core+netram CPU and lock wait", self},
					{"transport blocked: transport+wire+socket+memserver", blocked},
				},
				Median: p50us(pick(bs, func(b breakdown) int64 { return b.Total })), N: len(bs),
			})
		}
	}
	if as := breakdowns(t.spans, kAttach, nil); len(as) > 0 {
		self := msOf(percentile(pick(as, func(b breakdown) int64 { return b.Total - b.Transport }), 50))
		blocked := msOf(percentile(pick(as, func(b breakdown) int64 { return b.Transport }), 50))
		v["core.attach_self_ms_p50"] = self
		falls = append(falls, waterfall{
			Title: "waterfall: one core.Attach, traced", Unit: "ms",
			Bars: []bar{
				{"core self: recovery CPU, copies, allocation", self},
				{"transport blocked: reads and repair writes", blocked},
			},
			Median: msOf(percentile(pick(as, func(b breakdown) int64 { return b.Total }), 50)), N: len(as),
		})
	}

	// Call distributions.
	coreBegin, coreSet, coreCommit := kCallBegin, kCallSetRange, kCallCommit
	if t.remote {
		coreBegin, coreSet, coreCommit = kEngBegin, kEngSetRange, kEngCommit
		v["txclient.begin_us_p50"] = p50us(durations(t.spans, kCallBegin))
		v["txclient.setrange_us_p50"] = p50us(durations(t.spans, kCallSetRange))
		commit := durations(t.spans, kCallCommit)
		v["txclient.commit_us_p50"] = p50us(commit)
		v["txclient.commit_us_p99"] = p99us(commit)
		v["txclient.calls_per_tx"] = per(float64(t.calls), tx)
		v["txclient.busy_retries"] = float64(t.busyRetries)
		v["txserver.commits_per_convoy"] = per(float64(t.srv.ConvoyCommits), float64(t.srv.Convoys))
		v["txserver.batch_max"] = float64(t.srv.BatchMax)
		v["txserver.depth_p99"] = float64(t.srv.DepthP99)
		v["txserver.busy_rejected"] = float64(t.srv.BusyRejected)
	}
	v["core.begin_us_p50"] = p50us(durations(t.spans, coreBegin))
	v["core.setrange_us_p50"] = p50us(durations(t.spans, coreSet))
	commit := durations(t.spans, coreCommit)
	v["core.commit_us_p50"] = p50us(commit)
	v["core.commit_us_p99"] = p99us(commit)
	v["core.bytes_logged_per_tx"] = per(float64(t.core.BytesLogged), tx)
	v["core.conflicts"] = float64(t.core.Conflicts)
	v["core.aborted"] = float64(t.core.Aborted)
	v["core.rolled_back_txs"] = float64(t.rolled)

	v["netram.pushes_per_tx"] = per(float64(t.ram.Pushes), tx)
	v["netram.wire_bytes_per_tx"] = per(float64(t.ram.WireBytes), tx)
	v["netram.retries"] = float64(t.ramRetries)
	v["netram.degradations"] = float64(t.ramDegradations)

	writes := writeDurations(t.spans)
	v["transport.exchanges_per_tx"] = per(float64(t.xc.Exchanges), tx*mirrors)
	v["transport.write_us_p50"] = p50us(writes)
	v["transport.write_us_p99"] = p99us(writes)
	v["transport.bytes_per_tx"] = per(float64(t.xc.WriteBytes), tx*mirrors)
	v["transport.entries_per_exchange"] = per(float64(t.batchEntries), float64(t.batchExchanges))
	v["transport.read_calls"] = per(float64(t.xcRecover.Reads), float64(len(t.recoverNS)))
	v["transport.read_mib_s"] = per(float64(t.xcRecover.ReadBytes)/(1<<20), float64(t.xcRecover.ReadNS)/1e9)
	// The timed window's errors only: Attach finds the end of the undo
	// slots by connecting to names until one is missing, so a recovery
	// always ends in one refused Connect per mirror.
	v["transport.errors"] = float64(t.xc.Errors)

	v["memserver.write_ops_per_tx"] = per(float64(t.mem.WriteOps), tx*mirrors)
	v["memserver.batch_ops_per_tx"] = per(float64(t.mem.BatchOps), tx*mirrors)
	v["memserver.bytes_written_per_tx"] = per(float64(t.mem.BytesWritten), tx*mirrors)

	v["wire.encode_small_ns"] = pr.wireEncSmallNS
	v["wire.decode_small_ns"] = pr.wireDecSmallNS
	v["wire.encode_64k_ns"] = pr.wireEnc64kNS
	v["wire.decode_64k_ns"] = pr.wireDec64kNS
	v["wire.roundtrip_allocs"] = pr.wireRoundtripAllocs
	v["wire.overhead_bytes_small"] = pr.wireOverheadSmall
	v["memserver.write_64b_ns"] = pr.memWrite64NS
	v["memserver.write_64k_ns"] = pr.memWrite64kNS
	v["memserver.read_16m_ms"] = pr.memRead16mMS
	v["netram.push_64b_us_p50"] = pr.push64US
	v["netram.push_64k_us_p50"] = pr.push64kUS
	v["netram.fanout_overhead_us_p50"] = pr.fanoutOverheadUS
	v["netram.fetch_mib_s"] = pr.fetchMiBs

	v["process.gc_cycles"] = float64(t.gcCycles)
	v["process.gc_pause_ms"] = float64(t.gcPauseNS) / 1e6
	v["process.cpu_busy_cores"] = per(t.cpuSeconds, t.elapsed)
	v["process.tx_p999_us"] = usOf(percentile(u.lat, 99.9))
	v["process.recovery_p75_ms"] = msOf(percentile(sortedCopy(t.recoverNS), 75))
	v["process.failed_share"] = per(float64(u.failed+t.failed), float64(u.attempted+t.attempted))
	v["trace.overhead_pct"] = 100 * per(u.tps()-t.tps(), u.tps())
	v["trace.dropped_spans"] = float64(t.dropped)

	if one != nil {
		for _, ph := range []struct {
			suffix string
			p      *phaseResult
		}{{"_1c", one}, {"_2c", t}} {
			v["scale.tps"+ph.suffix] = ph.p.tps()
			v["scale.tx_p50_us"+ph.suffix] = p50us(durations(ph.p.spans, kTx))
			v["scale.engine_us_per_tx_p50"+ph.suffix] = p50us(engineTxTimes(ph.p.spans))
			v["scale.exchange_us_p50"+ph.suffix] = p50us(writeDurations(ph.p.spans))
			v["scale.cpu_busy_cores"+ph.suffix] = per(ph.p.cpuSeconds, ph.p.elapsed)
		}
	}
	return v, falls
}
