package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// exactCounts are per-layer metrics that are counts of a fixed piece of
// work: two runs of one commit with one seed must report them equal.
var exactCounts = []string{
	"keydist.messages_per_setup",
	"campaign.messages_per_inst",
	"campaign.bytes_per_inst",
	"ba.eig_entries_per_run.n64_t2",
}

func readResults(path string) (resultFile, error) {
	var file resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return file, err
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return file, fmt.Errorf("%s: %w", path, err)
	}
	if file.Schema != resultSchema {
		return file, fmt.Errorf("%s: schema %q, want %q", path, file.Schema, resultSchema)
	}
	return file, nil
}

// runsOf selects a file's runs of one workload and trace mode.
func (f resultFile) runsOf(workload string, trace int) []runRecord {
	var runs []runRecord
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			runs = append(runs, r)
		}
	}
	return runs
}

// series is one metric's values over a set of runs.
type series []float64

func valuesOf(runs []runRecord, name string) series {
	var vals series
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// spread is the distance between the first and third quartile as a share
// of the median, the way the driver computes it.
func (s series) spread() float64 {
	m := median(s)
	if len(s) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / m
}

// failedShare is failed over attempted across a set of runs.
func failedShare(runs []runRecord) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles applies BENCHMARK.json's bounds to two result files, a
// the baseline and b the candidate. One row per (workload, end-to-end
// metric): both medians, the wider of the two spreads, and
//
//	pass        b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the spread is wider than the bound, so neither can be said
//
// It reports false on a regression or a higher failed share.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS || a.GoVersion != b.GoVersion || a.Quick != b.Quick {
		fmt.Fprintf(w, "note: the two files come from different environments (%s nproc=%d gomaxprocs=%d quick=%v / %s nproc=%d gomaxprocs=%d quick=%v)\n",
			a.GoVersion, a.NProc, a.GOMAXPROCS, a.Quick, b.GoVersion, b.NProc, b.GOMAXPROCS, b.Quick)
	}
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tworse by\tspread\tbound\tverdict")
	for _, wl := range spec.Workloads {
		runsA, runsB := a.runsOf(wl.Name, 0), b.runsOf(wl.Name, 0)
		if len(runsA) == 0 || len(runsB) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := valuesOf(runsA, m.Name), valuesOf(runsB, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t%.3g\tregressed (metric missing)\n", wl.Name, m.Name, m.Unit, m.Bound)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := va.spread()
			if s := vb.spread(); s > spread {
				spread = s
			}
			verdict := "pass"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				ok = false
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n", wl.Name, m.Name, m.Unit,
				ma, mb, worse*100, spread*100, m.Bound*100, verdict)
		}
		fa, fb := failedShare(runsA), failedShare(runsB)
		verdict := "pass"
		if fb > fa {
			verdict = "regressed"
			ok = false
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%.6g\t%.6g\t\t\t0%%\t%s\n", wl.Name, fa, fb, verdict)

		tracedA, tracedB := a.runsOf(wl.Name, 1), b.runsOf(wl.Name, 1)
		if len(tracedA) == 0 || len(tracedB) == 0 || tracedA[0].Seed != tracedB[0].Seed {
			continue
		}
		for _, name := range exactCounts {
			ca, cb := tracedA[0].Metrics[name], tracedB[0].Metrics[name]
			verdict := "equal"
			if ca.Value != cb.Value {
				verdict = "differs"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t\t\t\t%s\n", wl.Name, name, ca.Unit, ca.Value, cb.Value, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	return ok, nil
}
