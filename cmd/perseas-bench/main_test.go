package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/trace"
)

func TestRunEachExperiment(t *testing.T) {
	tests := []struct {
		experiment string
		wantSubstr []string
	}{
		{"fig5", []string{"Figure 5", "2.70"}},
		{"fig6", []string{"Figure 6", "1048576"}},
		{"table1", []string{"Table 1", "debit-credit", "order-entry"}},
		{"dbsize", []string{"branches", "751100"}},
		{"ablate", []string{"no remote undo", "3 mirrors", "synthetic-200"}},
		{"commitpath", []string{"commit path", "local undo copy", "commit push", "p99(us)"}},
	}
	for _, tt := range tests {
		t.Run(tt.experiment, func(t *testing.T) {
			var sb strings.Builder
			if err := run(&sb, tt.experiment, 60); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			for _, want := range tt.wantSubstr {
				if !strings.Contains(out, want) {
					t.Errorf("output of %s missing %q:\n%s", tt.experiment, want, out)
				}
			}
		})
	}
}

func TestRunCompare(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "compare", 60); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, engine := range []string{"perseas", "rvm", "rvm-group", "rvm-rio", "vista", "wal-net"} {
		if !strings.Contains(out, engine) {
			t.Errorf("comparison missing engine %q", engine)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "nope", 10); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunAllMentionsCommitPath(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "all", 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "-experiment commitpath") {
		t.Error("-experiment all output should hint that commitpath runs only when named")
	}
}

// TestAllExperimentsMatchReference pins every reproduced table and
// figure: `perseas-bench -experiment all` at its default arguments must
// equal the committed experiments_output.txt byte for byte. The figures
// run on the simulated clock, so the comparison is exact on any host;
// a change that moves a modelled cost regenerates the file on purpose
// (`go run ./cmd/perseas-bench -experiment all > experiments_output.txt`)
// and says why.
func TestAllExperimentsMatchReference(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := run(&got, "all", 2000); err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("output diverges from experiments_output.txt at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, experiments_output.txt has %d", len(gotLines), len(wantLines))
}

// TestTracingKeepsOutputByteIdentical pins the acceptance criterion of
// the tracing layer: the recorder only reads the simulated clock, so
// enabling it — with or without a slower-than filter — must leave the
// reproduced figures byte-identical.
func TestTracingKeepsOutputByteIdentical(t *testing.T) {
	defer func() { tracer = nil }()
	for _, experiment := range []string{"fig6", "compare"} {
		t.Run(experiment, func(t *testing.T) {
			tracer = nil
			var base strings.Builder
			if err := run(&base, experiment, 60); err != nil {
				t.Fatal(err)
			}

			tracer = trace.NewRecorder()
			tracer.Enable()
			var traced strings.Builder
			if err := run(&traced, experiment, 60); err != nil {
				t.Fatal(err)
			}
			if traced.String() != base.String() {
				t.Error("output changed with tracing enabled")
			}
			if len(tracer.Snapshot()) == 0 {
				t.Error("tracing enabled but no spans recorded")
			}

			tracer = trace.NewRecorder()
			tracer.Enable()
			tracer.SetSlowerThan(time.Hour) // filters every transaction
			var filtered strings.Builder
			if err := run(&filtered, experiment, 60); err != nil {
				t.Fatal(err)
			}
			if filtered.String() != base.String() {
				t.Error("output changed with -trace-slower-than filtering")
			}
		})
	}
}

// TestFlightRecorderKeepsOutputByteIdentical pins the flight
// recorder's figure-neutrality: the recorder reads the clock only when
// an anomaly fires and a healthy lab produces none, so enabling it —
// alone or together with tracing — must not move a byte of output.
func TestFlightRecorderKeepsOutputByteIdentical(t *testing.T) {
	defer func() { tracer = nil; flightRec = nil }()
	for _, experiment := range []string{"fig5", "fig6", "table1", "compare"} {
		t.Run(experiment, func(t *testing.T) {
			tracer, flightRec = nil, nil
			var base strings.Builder
			if err := run(&base, experiment, 60); err != nil {
				t.Fatal(err)
			}

			flightRec = flight.New(0)
			flightRec.Enable()
			var recorded strings.Builder
			if err := run(&recorded, experiment, 60); err != nil {
				t.Fatal(err)
			}
			if recorded.String() != base.String() {
				t.Error("output changed with the flight recorder enabled")
			}
			// A healthy simulated lab produces no anomalies; a nonzero
			// count here would mean the figures exercised a degraded path.
			if n := flightRec.Total(); n != 0 {
				t.Errorf("healthy lab recorded %d anomaly events", n)
			}

			tracer = trace.NewRecorder()
			tracer.Enable()
			flightRec = flight.New(0)
			flightRec.Enable()
			var both strings.Builder
			if err := run(&both, experiment, 60); err != nil {
				t.Fatal(err)
			}
			if both.String() != base.String() {
				t.Error("output changed with tracing and the flight recorder enabled together")
			}
		})
	}
}

// TestSingleShardOutputByteIdentical pins the acceptance criterion of
// the shard router: at one shard the router is a pure pass-through —
// same mirrors, same labels, same commit path — so routing every figure
// experiment through it must not move a byte of output.
func TestSingleShardOutputByteIdentical(t *testing.T) {
	defer func() { routerSingle = false }()
	for _, experiment := range []string{"fig5", "fig6", "table1", "compare"} {
		t.Run(experiment, func(t *testing.T) {
			routerSingle = false
			var base strings.Builder
			if err := run(&base, experiment, 60); err != nil {
				t.Fatal(err)
			}
			routerSingle = true
			var routed strings.Builder
			if err := run(&routed, experiment, 60); err != nil {
				t.Fatal(err)
			}
			if routed.String() != base.String() {
				t.Errorf("output of %s changed behind a single-shard router", experiment)
			}
		})
	}
}

// TestRunShardExperiment smokes the shard scaling sweep: both counts
// must complete, produce machine-readable rows, and the second shard
// must buy real aggregate throughput (the full ≥1.6x criterion is
// recorded by BENCH_shard.json; the tripwire here is looser so a loaded
// CI host cannot flake it).
func TestRunShardExperiment(t *testing.T) {
	oldCSV, oldResults := shardCSV, benchResults
	defer func() { shardCSV, benchResults = oldCSV, oldResults }()
	shardCSV = "1,2"
	var sb strings.Builder
	if err := run(&sb, "shard", 160); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Shard scaling") {
		t.Errorf("missing header:\n%s", out)
	}
	payload, ok := benchResults.(map[string]any)
	if !ok {
		t.Fatalf("benchResults = %T, want map", benchResults)
	}
	rows, ok := payload["results"].([]shardResult)
	if !ok || len(rows) != 2 {
		t.Fatalf("results = %#v, want 2 rows", payload["results"])
	}
	if rows[1].SpeedupVs1 < 1.3 {
		t.Errorf("2-shard speedup = %.2fx, want at least 1.3x", rows[1].SpeedupVs1)
	}
}

// TestRunRecoverySweep pins the sweep's gate and its mechanism: without
// -bench-out the recovery experiment renders only the reference table;
// with it the table still renders first, byte for byte, followed by the
// wall-clock recovery and rebuild sweeps. What the sweeps' parallel arms
// do differently is asserted as a count — how many of the serialised
// links were transferring at once: exactly one in a serial arm, several
// once units spread over 4 workers or 2 chunks are in flight — because a
// wall-clock ratio over sleeping links is not a unit test (it flaked one
// run in six under -race). The ≥2x / ≥1.5x speedups themselves are
// `make bench-recovery`'s to print and BENCH_recovery.json's to record.
func TestRunRecoverySweep(t *testing.T) {
	oldPath, oldResults := benchOutPath, benchResults
	defer func() { benchOutPath, benchResults = oldPath, oldResults }()
	benchOutPath = ""
	var base strings.Builder
	if err := run(&base, "recovery", 60); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(base.String(), "sweep") {
		t.Error("sweep ran without -bench-out")
	}
	benchOutPath = filepath.Join(t.TempDir(), "rec.json")
	benchResults = nil
	var swept strings.Builder
	if err := run(&swept, "recovery", 60); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(swept.String(), base.String()) {
		t.Error("-bench-out changed the reference recovery table")
	}
	payload, ok := benchResults.(map[string]any)
	if !ok {
		t.Fatalf("benchResults = %T, want map", benchResults)
	}
	recRows, ok := payload["recovery"].(map[string]any)["rows"].([]recoverSweepRow)
	if !ok || len(recRows) != 3 {
		t.Fatalf("recovery rows = %#v, want 3", payload["recovery"])
	}
	if serial, wide := recRows[0], recRows[2]; serial.Workers != 1 || serial.LinksBusyMax != 1 ||
		wide.Workers != 4 || wide.LinksBusyMax < 2 {
		t.Errorf("links busy at once: %d at %d worker(s), %d at %d; want exactly 1 serially and at least 2 spread over 4 workers",
			serial.LinksBusyMax, serial.Workers, wide.LinksBusyMax, wide.Workers)
	}
	rebRows, ok := payload["rebuild"].(map[string]any)["rows"].([]rebuildSweepRow)
	if !ok || len(rebRows) != 2 {
		t.Fatalf("rebuild rows = %#v, want 2", payload["rebuild"])
	}
	if serial, piped := rebRows[0], rebRows[1]; serial.Depth != 1 || serial.LinksBusyMax != 1 ||
		piped.Depth != 2 || piped.LinksBusyMax < 2 {
		t.Errorf("links busy at once: %d at depth %d, %d at depth %d; want exactly 1 at depth 1 and at least 2 chunks in flight at depth 2",
			serial.LinksBusyMax, serial.Depth, piped.LinksBusyMax, piped.Depth)
	}
}

func TestWriteTraceFile(t *testing.T) {
	defer func() { tracer = nil }()
	tracer = trace.NewRecorder()
	tracer.Enable()
	var sb strings.Builder
	if err := run(&sb, "fig6", 60); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.trace.json")
	var out strings.Builder
	if err := writeTraceFile(&out, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace: ") {
		t.Errorf("missing trace summary line: %q", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := trace.ReadChromeTrace(f)
	if err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("trace file holds no spans")
	}
}
