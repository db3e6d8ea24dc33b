// Command fdreport is the analytics companion to fdcampaign and the obs
// trace layer: it turns the JSON artifacts they emit into human tables
// and CI verdicts.
//
// Usage:
//
//	fdreport diff [-threshold PCT] OLD NEW   # compare two campaign reports
//	fdreport table REPORT.json               # render a campaign sweep table
//	fdreport table -csv REPORT.json          # ... as CSV
//	fdreport trace TRACE.jsonl               # aggregate an obs trace by scope
//
// diff takes two fdcampaign/v1 reports and refuses anything else by
// naming the schema it found: conformance is gated exactly (a lost
// conformant run, a new violated predicate, or an agreement drop always
// fails), and the per-group cost means (messages, bytes, rounds) are
// gated against -threshold percent growth.
//
// Exit status: 0 clean, 1 usage or I/O error, 2 regression detected.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 1
	}
	switch args[0] {
	case "diff":
		return runDiff(args[1:])
	case "table":
		return runTable(args[1:])
	case "trace":
		return runTrace(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "fdreport: unknown subcommand %q\n", args[0])
		usage()
		return 1
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  fdreport diff [-threshold PCT] OLD NEW   compare two fdcampaign/v1
                                           reports; exit 2 on regression
  fdreport table [-csv] REPORT.json        render a campaign report table
  fdreport trace TRACE.jsonl               aggregate an obs JSONL trace
`)
}

func runDiff(args []string) int {
	fs := flag.NewFlagSet("fdreport diff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 10, "regression threshold in percent for cost metrics")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "fdreport diff: need exactly OLD and NEW files")
		return 1
	}
	d, err := report.DiffFiles(fs.Arg(0), fs.Arg(1), *threshold)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdreport: %v\n", err)
		return 1
	}
	d.Render(os.Stdout)
	if len(d.Regressions()) > 0 {
		return 2
	}
	return 0
}

func runTable(args []string) int {
	fs := flag.NewFlagSet("fdreport table", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "fdreport table: need exactly one report file")
		return 1
	}
	rep, err := report.LoadCampaign(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdreport: %v\n", err)
		return 1
	}
	tbl := rep.Table()
	if *csv {
		tbl.RenderCSV(os.Stdout)
	} else {
		tbl.Render(os.Stdout)
	}
	return 0
}

func runTrace(args []string) int {
	fs := flag.NewFlagSet("fdreport trace", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "fdreport trace: need exactly one JSONL trace file")
		return 1
	}
	events, err := report.LoadTrace(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdreport: %v\n", err)
		return 1
	}
	report.TraceTable(report.AggregateTrace(events)).Render(os.Stdout)
	return 0
}
