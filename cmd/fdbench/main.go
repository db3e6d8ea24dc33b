// Command fdbench regenerates every experiment table from the paper's
// evaluation (package internal/experiments' comment is the index).
//
// Usage:
//
//	fdbench                 # all experiments, report scale
//	fdbench -quick          # all experiments, reduced Monte-Carlo counts
//	fdbench -e E4           # one experiment
//	fdbench -e E10 -rsa     # include the (slow) RSA scheme in E10
//	fdbench -csv            # emit CSV instead of aligned tables
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	var (
		exp     = flag.String("e", "", "experiment ID (E1..E13); empty = all")
		quick   = flag.Bool("quick", false, "reduced Monte-Carlo counts")
		csv     = flag.Bool("csv", false, "emit CSV")
		withRSA = flag.Bool("rsa", false, "include RSA in E10 (slow)")
	)
	flag.Parse()

	var tables []*metrics.Table
	switch {
	case *exp == "" && *withRSA:
		tables = append(experiments.All(*quick), experiments.E10Schemes(true))
	case *exp == "":
		tables = experiments.All(*quick)
	case *exp == "E10" && *withRSA:
		tables = []*metrics.Table{experiments.E10Schemes(true), experiments.E10Bytes()}
	default:
		var err error
		tables, err = experiments.ByID(*exp, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
			os.Exit(1)
		}
	}

	for i, tbl := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *csv {
			tbl.RenderCSV(os.Stdout)
		} else {
			tbl.Render(os.Stdout)
		}
	}
}
