package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/trace"
)

func TestRunSelfContainedWithChaos(t *testing.T) {
	var sb strings.Builder
	cfg := config{
		selfContained: true,
		duration:      1500 * time.Millisecond,
		chaos:         true,
		branches:      1,
		workers:       2,
		statsEvery:    600 * time.Millisecond,
		metricsAddr:   "127.0.0.1:0",
	}
	if err := run(&sb, cfg); err != nil {
		t.Fatalf("stress run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"self-contained mirrors:",
		"metrics: http://",
		"CHAOS: killed mirror",
		"worker  0:",
		"worker  1:",
		"commit path",
		"commit total",
		"combiner batch size",
		"consistency: balance invariant holds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// -stats-every dumps the table mid-run, so it appears at least twice.
	if n := strings.Count(out, "commit path"); n < 2 {
		t.Errorf("latency table printed %d times, want periodic + final", n)
	}
}

func TestRunRequiresServers(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, config{duration: time.Second, branches: 1, workers: 1}); err == nil {
		t.Error("no servers and not self-contained should fail")
	}
}

func TestRunRejectsZeroWorkers(t *testing.T) {
	var sb strings.Builder
	cfg := config{selfContained: true, duration: time.Second, branches: 1}
	if err := run(&sb, cfg); err == nil {
		t.Error("zero workers should fail")
	}
}

func TestRunGuardianMode(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "stress.trace.json")
	var sb strings.Builder
	cfg := config{
		guardian: true,
		duration: 2 * time.Second,
		branches: 1,
		workers:  2,
		traceOut: traceFile,
	}
	if err := run(&sb, cfg); err != nil {
		t.Fatalf("guardian run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"guardian: watching 3 mirrors",
		"CHAOS: killed mirror",
		"GUARDIAN: mirror",
		"-> dead",
		"-> rebuilding",
		"-> restored",
		"MIRRORS:",
		"replication factor restored (3/3 live)",
		"consistency: balance invariant holds",
		"slowest transactions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The written trace must parse back and hold spans from every
	// instrumented layer, plus at least one complete transaction tree
	// (a root "tx" span with the commit phases under it).
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := trace.ReadChromeTrace(f)
	if err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	layers := map[trace.Layer]bool{}
	var completeTx uint64
	byTrace := map[uint64]map[string]bool{}
	for _, sp := range spans {
		layers[sp.Layer] = true
		if sp.Trace == 0 {
			continue
		}
		if byTrace[sp.Trace] == nil {
			byTrace[sp.Trace] = map[string]bool{}
		}
		byTrace[sp.Trace][sp.Name] = true
	}
	for id, names := range byTrace {
		if names["tx"] && names["set_range"] && names["commit"] && names["commit_push"] {
			completeTx = id
			break
		}
	}
	for l := trace.LayerEngine; l <= trace.LayerGuardian; l++ {
		if !layers[l] {
			t.Errorf("trace has no spans from the %s layer", l)
		}
	}
	if completeTx == 0 {
		t.Error("trace holds no complete transaction tree (tx/set_range/commit/commit_push)")
	}
}

// TestRunShardedGuardianMode is the shard chaos smoke: two complete
// PERSEAS instances behind the router, each watched by its own guardian;
// shard 0 loses a mirror mid-run while cross-shard transactions keep
// committing (at two shards the TPC-B tables split tellers/rest, so
// every transaction spans both), and both shards must end with the
// replication factor restored and the balance invariant intact.
func TestRunShardedGuardianMode(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "shard-stress.trace.json")
	var sb strings.Builder
	cfg := config{
		guardian: true,
		shards:   2,
		duration: 2 * time.Second,
		branches: 1,
		workers:  2,
		traceOut: traceFile,
	}
	if err := run(&sb, cfg); err != nil {
		t.Fatalf("sharded guardian run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"shard 0 mirrors:",
		"shard 1 mirrors:",
		"placement: shard 0 holds [tellers]",
		"placement: shard 1 holds [accounts branches history]",
		"CHAOS: killed mirror",
		"GUARDIAN: mirror",
		"-> rebuilding",
		"shard 0 guardian:",
		"shard 1 guardian:",
		"replication factor restored (3/3 live)",
		"cross-shard commits",
		"consistency: balance invariant holds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "router: 0 single-shard commits, 0 cross-shard commits") {
		t.Errorf("no transactions committed through the router:\n%s", out)
	}
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if spans, err := trace.ReadChromeTrace(f); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	} else if len(spans) == 0 {
		t.Error("sharded run recorded no spans")
	}
}

func TestRunShardedRejectsServers(t *testing.T) {
	var sb strings.Builder
	cfg := config{servers: "h1:7070", shards: 2, duration: time.Second, branches: 1, workers: 1}
	if err := run(&sb, cfg); err == nil {
		t.Error("-shards with -servers should fail")
	}
}

func TestRunRejectsChaosPlusGuardian(t *testing.T) {
	var sb strings.Builder
	cfg := config{guardian: true, chaos: true, duration: time.Second, branches: 1, workers: 1}
	if err := run(&sb, cfg); err == nil {
		t.Error("-chaos with -guardian should fail")
	}
}

func TestRunRecoverChaos(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		var sb strings.Builder
		cfg := config{
			recoverChaos:    true,
			recoverParallel: parallel,
			duration:        2 * time.Second,
			workers:         3,
		}
		if err := run(&sb, cfg); err != nil {
			t.Fatalf("recover-chaos (parallel %d): %v\n%s", parallel, err, sb.String())
		}
		out := sb.String()
		for _, want := range []string{
			"power-failed the primary",
			"zero lost commits",
			"conservation: total balance 128000 matches initial 128000",
			"VerifyAll clean across 3 mirrors",
			"RECOVER-CHAOS PASS",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("parallel %d output missing %q:\n%s", parallel, want, out)
			}
		}
	}
}
