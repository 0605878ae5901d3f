package main

// -compare: judge two sets of runs (two -out files) by the benchmark's own
// bounds. For every (end-to-end metric, workload) pair it prints ok, worse
// or unresolved; inputs whose fingerprints differ are refused, because a
// different configuration is not a regression.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// series groups the untraced legs' values by workload and metric, and
// records each workload's fingerprint (one per file, or an error).
func series(path string, recs []record) (vals map[string]map[string][]float64, prints map[string]string, err error) {
	vals, prints = make(map[string]map[string][]float64), make(map[string]string)
	for _, r := range recs {
		if r.Trace != 0 {
			continue
		}
		if fp, ok := prints[r.Workload]; ok && fp != r.Fingerprint {
			return nil, nil, fmt.Errorf("%s mixes fingerprints for %s", path, r.Workload)
		}
		prints[r.Workload] = r.Fingerprint
		if vals[r.Workload] == nil {
			vals[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
	}
	return vals, prints, nil
}

// verdict applies the rule: b is worse when its median is worse than a's by
// more than the bound; where either side's own spread exceeds the bound the
// pair is unresolved, unless every run of b reads better than every run of a.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	worseBy := (mb - ma) / ma
	if higherBetter {
		worseBy = -worseBy
	}
	noisy := false
	for _, xs := range [][]float64{a, b} {
		if s, ok := spread(xs); ok && s > bound {
			noisy = true
		}
	}
	if noisy {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (higherBetter && x <= y) || (!higherBetter && x >= y) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "ok", worseBy
		}
		return "unresolved", worseBy
	}
	if worseBy > bound {
		return "worse", worseBy
	}
	return "ok", worseBy
}

// runCompare prints the verdict table and reports whether any pair is worse.
func runCompare(w io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	doc, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(doc, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	valsA, printsA, err := series(pathA, recsA)
	if err != nil {
		return false, err
	}
	valsB, printsB, err := series(pathB, recsB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range valsA {
		if _, ok := valsB[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload with an untraced leg", pathA, pathB)
	}
	for _, name := range names {
		if printsA[name] != printsB[name] {
			return false, fmt.Errorf("%s: fingerprints differ (%.12s vs %.12s): different configurations are not comparable",
				name, printsA[name], printsB[name])
		}
	}
	unresolved := 0
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "verdict")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			a, b := valsA[name][m.Name], valsB[name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, by := verdict(a, b, m.Better == "higher", m.Bound)
			switch v {
			case "worse":
				worse = true
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %+8.2f%% %6.1f%%  %s (n=%d,%d)\n",
				name, m.Name, median(a), median(b), 100*by, 100*m.Bound, v, len(a), len(b))
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(w, "%d pair(s) unresolved: the spread between a side's own runs exceeds the bound\n", unresolved)
	}
	return worse, nil
}
