package main

import (
	"fmt"
	"io"
)

// minRunsForSpread is how many runs a side needs before its quartile
// spread is taken as its noise; with fewer the metric's bound stands in.
const minRunsForSpread = 5

// series collects one (workload, metric)'s values across a file's runs.
type series map[string]map[string][]float64

func collect(f *resultFile, trace int) series {
	s := series{}
	for _, r := range f.Runs {
		if r.Trace != trace {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s
}

// verdict classifies one end-to-end metric on one workload.
//
//   - unresolved: either side's run-to-run spread (quartile distance
//     over median) is wider than the bound, so the bound cannot be
//     checked;
//   - regressed: the new median is worse than the old by more than the
//     bound;
//   - improved: the new median is better by more than the noise — the
//     wider of the two spreads when both sides have at least five runs,
//     the bound otherwise;
//   - unchanged: everything else.
func verdict(spec metricSpec, old, new []float64) (oldMed, newMed, worse, spread float64, v string) {
	oldMed, newMed = medianF(old), medianF(new)
	spread = quartileSpread(old)
	if s := quartileSpread(new); s > spread {
		spread = s
	}
	// worse is the change as a share of the old median, positive when
	// the metric moved in its bad direction.
	worse = per(newMed-oldMed, oldMed)
	if spec.Better == "higher" {
		worse = -worse
	}
	noise := spec.Bound
	if len(old) >= minRunsForSpread && len(new) >= minRunsForSpread {
		noise = spread
	}
	switch {
	case spread > spec.Bound:
		v = "unresolved"
	case worse > spec.Bound:
		v = "regressed"
	case -worse > noise:
		v = "improved"
	default:
		v = "unchanged"
	}
	return
}

// compareFiles prints one row per (workload, end-to-end metric) with a
// verdict, then the per-layer medians side by side, and reports whether
// anything regressed.
func compareFiles(oldPath, newPath string, out io.Writer) (regressed bool, err error) {
	oldF, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	oldE, newE := collect(oldF, 0), collect(newF, 0)
	fmt.Fprintf(out, "end-to-end: %s -> %s\n", oldPath, newPath)
	fmt.Fprintf(out, "%-20s %-20s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "worse by", "spread", "bound", "verdict")
	rows := 0
	for _, wl := range workloadNames {
		for _, spec := range endToEndSpecs {
			o, n := oldE[wl][spec.Name], newE[wl][spec.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			rows++
			oldMed, newMed, worse, spread, v := verdict(spec, o, n)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(out, "%-20s %-20s %14.4f %14.4f %+8.1f%% %7.1f%% %7.1f%%  %s (n=%d,%d)\n",
				wl, spec.Name, oldMed, newMed, 100*worse, 100*spread, 100*spec.Bound, v, len(o), len(n))
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("no untraced run of the same workload in both %s and %s", oldPath, newPath)
	}

	oldL, newL := collect(oldF, 1), collect(newF, 1)
	for _, wl := range workloadNames {
		if len(oldL[wl]) == 0 || len(newL[wl]) == 0 {
			continue
		}
		fmt.Fprintf(out, "\nper-layer medians, %s (no bound; they explain the rows above)\n", wl)
		fmt.Fprintf(out, "%-40s %16s %16s %9s  %s\n", "metric", "old", "new", "change", "unit")
		for _, spec := range perLayerSpecs {
			o, n := oldL[wl][spec.Name], newL[wl][spec.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := medianF(o), medianF(n)
			fmt.Fprintf(out, "%-40s %16.4f %16.4f %+8.1f%%  %s\n", spec.Name, om, nm, 100*per(nm-om, om), spec.Unit)
		}
	}
	return regressed, nil
}
