// Command benchmark is the repository's wall-clock benchmark: four
// workloads over two memory servers on loopback TCP, seven gated
// end-to-end metrics, and a per-layer budget measured from outside the
// program. See README.md in this directory.
//
//	go run ./benchmark                               every workload, untraced then traced
//	go run ./benchmark -workload remote-bulk         one workload, untraced
//	go run ./benchmark -workload remote-bulk -trace 1
//	go run ./benchmark -out new.json                 append the runs to new.json
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is the measured time of one run; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 20

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	// traceDir is where trace-<workload>.json goes.
	traceDir string
}

// sizes are the repetition counts and database sizes of a run.
type sizes struct {
	warmup time.Duration
	// setups is how many times a transaction workload is set up: set-up
	// takes milliseconds, so one sample of it is mostly scheduling noise.
	setups int
	// recoverMin and recoverFor bound the crash + Attach repetitions
	// that follow a transaction workload's window.
	recoverMin     int
	recoverFor     time.Duration
	bulkDB         uint64
	recoverDB      uint64
	recoverMinReps int
	// probeScale divides the direct probes' iteration counts.
	probeScale int
}

var (
	fullSizes = sizes{
		warmup: 3 * time.Second, setups: 11, recoverMin: 15, recoverFor: 4 * time.Second,
		bulkDB: bulkDBSize, recoverDB: recoverDBSize, recoverMinReps: 10, probeScale: 1,
	}
	// smokeSizes let tier-1 afford to exercise every path.
	smokeSizes = sizes{
		warmup: 200 * time.Millisecond, setups: 2, recoverMin: 2,
		bulkDB: 4 << 20, recoverDB: 4 << 20, recoverMinReps: 2, probeScale: 10,
	}
)

func (c config) sizes() sizes {
	if c.smoke {
		return smokeSizes
	}
	z := fullSizes
	if c.traced {
		// A traced run warms up two or three rigs; its numbers are not
		// gated, and the run has to fit the driver's time budget.
		z.warmup = 2 * time.Second
	}
	return z
}

func (c config) window(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// resultLine is what the driver reads from the last line of standard
// output: exactly these four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one finished run as -out stores it.
type record struct {
	resultLine

	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Trace    int              `json:"trace"`
	Seconds  float64          `json:"seconds"`
	Samples  map[string]int64 `json:"samples"`
	Host     hostInfo         `json:"host"`
}

// hostInfo says where and from what the numbers came.
type hostInfo struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostInfo {
	h := hostInfo{
		GitSHA: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	// The driver's checkout is not a git repository; then the sha stays
	// unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	return h
}

func mkWorkload(cfg config, clients int) func() txWorkload {
	switch cfg.workload {
	case wlLibDebitCredit:
		return func() txWorkload { return newDebitCredit(1, false) }
	case wlRemoteDebitCredit:
		return func() txWorkload { return newDebitCredit(clients, true) }
	case wlRemoteBulk:
		return func() txWorkload { return newBulk(cfg.sizes().bulkDB) }
	}
	return nil
}

// runPhase runs one phase of cfg's workload: rec nil for untraced,
// clients only matters to remote-debitcredit.
func runPhase(cfg config, rec *recorder, clients int, share float64, setups int, recoverShare float64) (*phaseResult, error) {
	z := cfg.sizes()
	if cfg.workload == wlRecoverAttach {
		return runRecoverPhase(recoverSpec{
			seed: cfg.seed, rec: rec, dbSize: z.recoverDB,
			window: cfg.window(share), minReps: z.recoverMinReps,
		})
	}
	return runTxPhase(mkWorkload(cfg, clients), phaseSpec{
		seed: cfg.seed, rec: rec, setups: setups, warmup: z.warmup,
		window:     cfg.window(share),
		recoverMin: int(float64(z.recoverMin) * recoverShare),
		recoverFor: time.Duration(float64(z.recoverFor) * recoverShare),
	})
}

// runOne runs one workload in this process and prints its metrics.
func runOne(cfg config, out io.Writer) (*record, error) {
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Host: host(), Samples: map[string]int64{},
	}
	h := rec.Host
	fmt.Fprintf(out, "# workload %s  seed %d  seconds %g  trace %v  smoke %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced, cfg.smoke)
	fmt.Fprintf(out, "# git %s  %s  nproc %d  GOMAXPROCS %d  %s/%s\n", h.GitSHA, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.GOOS, h.GOARCH)

	var (
		vals  values
		specs []metricSpec
		falls []waterfall
	)
	if !cfg.traced {
		// The gated numbers: no decorator, no recorder, no probe.
		p, err := runPhase(cfg, nil, 2, 1, cfg.sizes().setups, 1)
		if err != nil {
			return nil, err
		}
		if vals, err = endToEnd(p); err != nil {
			return nil, err
		}
		specs = endToEndSpecs
		rec.Attempted, rec.Failed = p.attempted, p.failed
		rec.Samples["transactions"] = int64(len(p.lat))
		rec.Samples["attaches"] = int64(len(p.recoverNS))
		rec.Samples["setups"] = int64(len(p.setupNS))
		fmt.Fprintf(out, "# %d transactions in %.3f s by %d client(s); %d attaches; %d set-ups; highest percentile with 10 samples beyond it: p%g\n",
			p.commits, p.elapsed, p.clients, len(p.recoverNS), len(p.setupNS), highestSupported(len(p.lat)))
	} else {
		rec.Trace = 1
		// An untraced phase first (the overhead baseline), then the same
		// workload with the decorators in place; remote-debitcredit adds a
		// one-client traced phase, where spans can be attributed.
		shares := []float64{0.5, 0.5, 0}
		if cfg.workload == wlRemoteDebitCredit {
			shares = []float64{0.4, 0.35, 0.25}
		}
		u, err := runPhase(cfg, nil, 2, shares[0], 1, 0)
		if err != nil {
			return nil, fmt.Errorf("untraced phase: %w", err)
		}
		runtime.GC()
		tr := newRecorder(recorderCap)
		t, err := runPhase(cfg, tr, 2, shares[1], 1, 0.5)
		if err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		var one *phaseResult
		if shares[2] > 0 {
			runtime.GC()
			tr1 := newRecorder(recorderCap)
			if one, err = runPhase(cfg, tr1, 1, shares[2], 1, 0); err != nil {
				return nil, fmt.Errorf("one-client traced phase: %w", err)
			}
		}
		pr, err := runProbes(cfg.sizes().probeScale)
		if err != nil {
			return nil, err
		}
		vals, falls = perLayer(u, t, one, pr)
		specs = perLayerSpecs
		rec.Attempted, rec.Failed = u.attempted+t.attempted, u.failed+t.failed
		rec.Samples["transactions"] = int64(len(t.lat))
		rec.Samples["spans"] = int64(len(t.spans))
		rec.Samples["attaches"] = int64(len(t.recoverNS))
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".json")
		if err := writeTraceFile(path, cfg.workload, cfg.seed, t.spans, t.dropped); err != nil {
			return nil, err
		}
		if one != nil {
			path1 := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".1client.json")
			if err := writeTraceFile(path1, cfg.workload, cfg.seed, one.spans, one.dropped); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(out, "# traced %d transactions in %.3f s (untraced baseline %d in %.3f s); %d spans -> %s\n",
			t.commits, t.elapsed, u.commits, u.elapsed, len(t.spans), path)
	}
	m, err := vals.emit(specs)
	if err != nil {
		return nil, err
	}
	rec.Metrics = m
	rec.Correct = true // a failed check returned an error above
	for _, s := range specs {
		fmt.Fprintf(out, "%-40s %16.4f %s\n", s.Name, m[s.Name].Value, s.Unit)
	}
	for _, w := range falls {
		w.print(out)
	}
	fmt.Fprintf(out, "# attempted %d  failed %d  failed_share %g\n", rec.Attempted, rec.Failed, per(float64(rec.Failed), float64(rec.Attempted)))
	return rec, nil
}

// resultFile is what -out accumulates and -compare reads.
type resultFile struct {
	Runs []record `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds rec to the result file at path, creating it.
func appendResult(path string, rec *record) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f = &resultFile{}
	} else if err != nil {
		return err
	}
	f.Runs = append(f.Runs, *rec)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload, untraced then traced, each in a fresh
// re-exec'd child so heap, GC state and peak RSS cannot leak from one
// workload into the next.
func runAll(args []string, traceModes []int, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range workloadNames {
		for _, tm := range traceModes {
			child := exec.Command(self, append(append([]string{}, args...), "-workload", wl, "-trace", fmt.Sprint(tm))...)
			child.Stdout, child.Stderr = stdout, stderr
			if err := child.Run(); err != nil {
				return fmt.Errorf("workload %s (trace %d): %w", wl, tm, err)
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

func main() { os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr)) }

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all, each in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds one run measures")
	trace := fs.Int("trace", -1, "0: untraced, prints the end-to-end metrics; 1: traced, prints the per-layer metrics (default: 0 for one workload, both for all)")
	out := fs.String("out", "", "append each run's result to this JSON file (input to -compare)")
	smoke := fs.Bool("smoke", false, "tiny run for tier-1: 1 s windows, 4 MiB databases, 2 recovery repetitions")
	compare := fs.Bool("compare", false, "compare two -out files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *smoke && *seconds == defaultSeconds {
		*seconds = 1
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		return fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	if *workload == "" {
		pass := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds)}
		if *smoke {
			pass = append(pass, "-smoke")
		}
		if *out != "" {
			pass = append(pass, "-out", *out)
		}
		modes := []int{0, 1}
		if *trace >= 0 {
			modes = []int{*trace}
		}
		if err := runAll(pass, modes, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	if !known(*workload) {
		return fail(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", ")))
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke,
		traceDir: filepath.Join("benchmark", "out"),
	}
	rec, err := runOne(cfg, stdout)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := appendResult(*out, rec); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func known(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}
