package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -check, per (workload, end-to-end metric).
const (
	vAgree      = "agree"      // B is no worse than A by more than the metric's bound
	vWorse      = "worse"      // B is worse than A by more than the bound
	vUnresolved = "unresolved" // either side's own spread is wider than the bound, or unknown
	vMissing    = "missing"    // one side has no value
)

// samplesOf gathers one metric's values on one workload from a result
// set. With several untraced runs each run's median is a sample; with
// one run its repetitions are, so that a single pair of runs still
// yields a spread.
func samplesOf(rs []*result, workload, metric string) []float64 {
	var runs []value
	for _, r := range rs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				runs = append(runs, v)
			}
		}
	}
	if len(runs) == 1 && len(runs[0].Reps) > 1 {
		return runs[0].Reps
	}
	out := make([]float64, len(runs))
	for i, v := range runs {
		out[i] = v.Value
	}
	return out
}

// judge compares B's samples with A's under d's bound.
func judge(d metricDef, a, b []float64) (verdict string, ma, mb, worsening, widest float64) {
	if len(a) == 0 || len(b) == 0 {
		return vMissing, 0, 0, 0, 0
	}
	ma, mb = median(a), median(b)
	worsening = mb - ma
	if d.Better == "higher" {
		worsening = -worsening
	}
	if d.Absolute {
		if worsening > d.Bound {
			return vWorse, ma, mb, worsening, 0
		}
		return vAgree, ma, mb, worsening, 0
	}
	if ma != 0 {
		worsening /= math.Abs(ma)
	}
	widest = math.Max(spread(a), spread(b))
	switch {
	case widest > d.Bound:
		return vUnresolved, ma, mb, worsening, widest
	case worsening > d.Bound && (len(a) < 2 || len(b) < 2):
		// One value a side says nothing about spread, so it cannot
		// carry a verdict of worse.
		return vUnresolved, ma, mb, worsening, widest
	case worsening > d.Bound:
		return vWorse, ma, mb, worsening, widest
	}
	return vAgree, ma, mb, worsening, widest
}

// checkFiles prints the metric-by-metric comparison of two result sets
// and reports whether any metric came out worse.
func checkFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A", "B", "worsening", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range workloadNames {
		for _, d := range metricDefs {
			if d.Layer || !d.appliesTo(wl) {
				continue
			}
			verdict, ma, mb, worsening, widest := judge(d, samplesOf(a, wl, d.Name), samplesOf(b, wl, d.Name))
			counts[verdict]++
			unit := "%"
			scale := 100.0
			if d.Absolute {
				unit, scale = "", 1
			}
			fmt.Fprintf(w, "%-12s %-22s %14.6g %14.6g %+8.2f%s %7.2f%% %6.4g%s  %s\n",
				wl, d.Name, ma, mb, worsening*scale, unit, widest*100, d.Bound*scale, unit, verdict)
		}
	}
	fmt.Fprintf(w, "%d agree, %d unresolved, %d worse, %d missing\n", counts[vAgree], counts[vUnresolved], counts[vWorse], counts[vMissing])
	return counts[vWorse] > 0, nil
}
