package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain implements `benchmark compare A B`: A and B are each a report
// file, a file holding an array of reports, or a directory of report files —
// typically the parent commit's runs and the change's. For every end-to-end
// metric on every workload it prints one row with both medians and
// quartiles and a verdict under the metric's bound. It returns 1 if any row
// is worse or unresolved.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <a.json|dir> <b.json|dir>")
		return 2
	}
	a, err := loadReports(args[0])
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no untraced reports", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := loadReports(args[1])
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s holds no untraced reports", args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	bad := 0
	fmt.Printf("%-16s %-18s %34s %34s %8s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse by", "verdict")
	for _, wl := range workloadNames {
		for _, m := range endToEnd {
			va, vb := valuesOf(a, wl, m.name), valuesOf(b, wl, m.name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			verdict, worse := judge(va, vb, m.better, m.bound, m.name != "setup_s")
			if verdict == "worse" || verdict == "unresolved" {
				bad++
			}
			fmt.Printf("%-16s %-18s %34s %34s %+7.1f%%  %s\n", wl, m.name, describe(va), describe(vb), 100*worse, verdict)
		}
		fa, fb := failRatio(a, wl), failRatio(b, wl)
		verdict := "unchanged"
		switch {
		case fb > fa+0.001:
			verdict = "worse"
			bad++
		case fb < fa-0.001:
			verdict = "better"
		}
		fmt.Printf("%-16s %-18s %34.6f %34.6f %8s  %s\n", wl, "fail_ratio", fa, fb, "", verdict)
	}
	if bad > 0 {
		fmt.Printf("%d (metric, workload) pairs are worse or unresolved\n", bad)
		return 1
	}
	return 0
}

// judge applies a bound. worse is B's median relative to A's, signed so
// that positive is worse whichever way the metric points. With checkSpread,
// a pair whose runs spread (interquartile range over median, on either side)
// wider than the bound cannot be told apart from noise and is unresolved,
// not unchanged; set-up time is judged on its medians alone, as the
// acceptance check does, because a run already reports the median of five.
func judge(a, b []float64, better string, bound float64, checkSpread bool) (verdict string, worse float64) {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved", math.NaN()
	}
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	if checkSpread && (spread(a) > bound || spread(b) > bound) {
		return "unresolved", worse
	}
	switch {
	case worse > bound:
		return "worse", worse
	case worse < -bound:
		return "better", worse
	}
	return "unchanged", worse
}

// spread is the interquartile range as a share of the median; zero for
// fewer than two values, where nothing can be said.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

func describe(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(v), q1, q3, len(v))
}

func valuesOf(reps []*report, workload, name string) []float64 {
	var out []float64
	for _, r := range reps {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failRatio(reps []*report, workload string) float64 {
	var failed, attempted int64
	for _, r := range reps {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// loadReports reads the untraced reports at path.
func loadReports(path string) ([]*report, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*report
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var many []*report
		if json.Unmarshal(data, &many) != nil {
			var one report
			if err := json.Unmarshal(data, &one); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			many = []*report{&one}
		}
		for _, r := range many {
			if !r.Traced {
				out = append(out, r)
			}
		}
	}
	return out, nil
}
