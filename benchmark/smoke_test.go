package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesDeclaredMetrics: BENCHMARK.json and the metric
// tables in metrics.go say the same thing, entry for entry.
func TestManifestMatchesDeclaredMetrics(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads = %v, the program has %v", names, workloadNames)
	}
	if len(m.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end_to_end metrics, the program declares %d", len(m.EndToEnd), len(endToEndSpecs))
	}
	for i, e := range m.EndToEnd {
		s := endToEndSpecs[i]
		if e.Name != s.Name || e.Unit != s.Unit || e.Better != s.Better || e.Bound != s.Bound {
			t.Errorf("end_to_end[%d] = %+v, the program declares %+v", i, e, s)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("%d per_layer metrics, the program declares %d", len(m.PerLayer), len(perLayerSpecs))
	}
	for i, e := range m.PerLayer {
		s := perLayerSpecs[i]
		if e.Name != s.Name || e.Unit != s.Unit || e.Better != s.Better {
			t.Errorf("per_layer[%d] = %+v, the program declares %+v", i, e, s)
		}
	}
}

func metricNames(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke drives every workload, untraced and traced, through the
// same code the real run uses, at toy sizes. It asserts that the checks
// pass, that nothing failed, and that the metric names emitted are the
// ones BENCHMARK.json declares — never a value.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	m := readManifest(t)
	var wantE2E, wantLayer []string
	for _, e := range m.EndToEnd {
		wantE2E = append(wantE2E, e.Name)
	}
	for _, e := range m.PerLayer {
		wantLayer = append(wantLayer, e.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	dir := t.TempDir()
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			rec, err := runOne(config{workload: w.Name, seed: 3, seconds: 1, traced: traced, smoke: true, traceDir: dir}, &out)
			if err != nil {
				t.Errorf("%s (traced %v): %v\n%s", w.Name, traced, err, out.String())
				continue
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", w.Name, traced, rec.Correct, rec.Failed, rec.Attempted)
			}
			want := wantE2E
			if traced {
				want = wantLayer
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				if !strings.Contains(out.String(), "waterfall: ") {
					t.Errorf("%s: the traced run printed no waterfall", w.Name)
				}
			}
			if got := metricNames(rec.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s (traced %v): emitted metrics %v, BENCHMARK.json declares %v", w.Name, traced, got, want)
			}
			for name, v := range rec.Metrics {
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; the contract needs it never 0", w.Name, name, v.Value)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s: metric %s was not printed", w.Name, name)
				}
			}
		}
	}
}

// TestCompareFlagsRegression feeds -compare two result files that
// differ by more than the bound on one metric.
func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tps float64) string {
		path := filepath.Join(dir, name)
		for seed := uint64(0); seed < 5; seed++ {
			rec := &record{Workload: wlRemoteBulk, Seed: seed}
			rec.Correct, rec.Attempted, rec.Metrics = true, 10, map[string]metricValue{}
			for _, s := range endToEndSpecs {
				rec.Metrics[s.Name] = metricValue{Value: 100 + float64(seed)*0.1, Unit: s.Unit}
			}
			rec.Metrics["commit_tps"] = metricValue{Value: tps + float64(seed), Unit: "tx/s"}
			if err := appendResult(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	oldPath, same, slow := write("old.json", 2000), write("same.json", 2001), write("slow.json", 1200)

	var out bytes.Buffer
	if code := mainCode([]string{"-compare", oldPath, same}, &out, &out); code != 0 {
		t.Errorf("comparing like with like exited %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("comparing like with like printed:\n%s", out.String())
	}
	out.Reset()
	if code := mainCode([]string{"-compare", oldPath, slow}, &out, &out); code == 0 {
		t.Errorf("a 40%% throughput loss exited 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 40%% throughput loss printed no regressed row:\n%s", out.String())
	}
}
