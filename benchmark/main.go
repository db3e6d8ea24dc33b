// Command benchmark is the repository's one benchmark: four closed-loop
// workloads over the whole stack, end-to-end metrics with regression
// bounds (BENCHMARK.json), and a traced mode that takes the same numbers
// apart layer by layer. See README.md.
//
//	go run -C benchmark .                                   every workload, untraced then traced
//	go run -C benchmark . -workload serve_steady -trace 0   one contract run
//	go run -C benchmark . -compare a/results.json b/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed expected.json pins outputs for.
const defaultSeed = 1995

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	out      string
	quick    bool
	runs     int
}

// runRecord is one run of one workload as written to results.json and,
// minus the bookkeeping fields, as printed on the run's last line.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Ops       int               `json:"ops"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// KernelRate is the run's reference-kernel rate (the second best of
	// its bursts) and Parts the window's parts as the clock read them;
	// end-to-end runs only.
	KernelRate float64    `json:"kernel_rate,omitempty"`
	Parts      []partStat `json:"parts,omitempty"`
	Error      string     `json:"error,omitempty"`
}

// resultFile is results.json: enough of the environment to recognise a
// run made on a different box, and every run of the invocation.
type resultFile struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NProc      int         `json:"nproc"`
	Quick      bool        `json:"quick"`
	Runs       []runRecord `json:"runs"`
}

const resultSchema = "fdbenchmark/v1"

func main() {
	var o options
	compare := flag.Bool("compare", false, "compare two results.json files (arguments) under BENCHMARK.json's bounds")
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; run i of -runs uses seed+i")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, recording off; 1: per-layer metrics; both")
	flag.StringVar(&o.out, "out", "out", "directory for results.json and trace.jsonl (empty: write nothing)")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: a twentieth of the time, smaller grids, 100-run probes")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload, each with another seed")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected workloads and reports whether every output
// was correct.
func run(o options) (bool, error) {
	selected := workloads
	if o.workload != "all" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	var modes []int
	switch o.trace {
	case "0":
		modes = []int{0}
	case "1":
		modes = []int{1}
	case "both":
		modes = []int{0, 1}
	default:
		return false, fmt.Errorf("-trace must be 0, 1 or both, got %q", o.trace)
	}
	if o.quick {
		o.seconds /= 20
	}
	if o.seconds <= 0 || o.runs < 1 {
		return false, fmt.Errorf("-seconds and -runs must be positive")
	}
	expected, err := loadExpected()
	if err != nil {
		return false, err
	}

	file := resultFile{Schema: resultSchema, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Quick: o.quick}
	fmt.Printf("# %s %s/%s gomaxprocs=%d nproc=%d seed=%d seconds=%g quick=%v\n", file.GoVersion, file.GOOS,
		file.GOARCH, file.GOMAXPROCS, file.NProc, o.seed, o.seconds, o.quick)
	b := &bench{opts: o, expected: expected}
	allCorrect := true
	for i := 0; i < o.runs; i++ {
		seed := o.seed + int64(i)
		for _, w := range selected {
			for _, mode := range modes {
				var rec runRecord
				if mode == 0 {
					rec = b.endToEndRun(w, seed)
				} else {
					rec = b.tracedRun(w, seed)
				}
				file.Runs = append(file.Runs, rec)
				allCorrect = allCorrect && rec.Correct
				if err := printRun(rec); err != nil {
					return false, err
				}
			}
		}
	}
	if o.out != "" {
		if err := b.writeOutputs(file); err != nil {
			return false, err
		}
	}
	return allCorrect, nil
}

// bench carries what runs of one invocation share.
type bench struct {
	opts     options
	expected expectedOutputs
	// layers holds the workload-independent probe values, measured by the
	// first traced run and reused by later ones in the same process.
	layers map[string]float64
	tracer *tracer
}

// warmShare is the share of -seconds every run first spends running the
// reference kernel unmeasured: a box that has sat idle runs its first
// seconds of load measurably slower (here: a fifth), so each run brings
// it up to speed before the first set-up is timed.
const warmShare = 0.1

// setupRepeats is how often set-up is repeated on fresh state; setup_s
// is the median.
const setupRepeats = 3

// endToEndRun measures one workload with recording off.
func (b *bench) endToEndRun(w workload, seed int64) runRecord {
	rec := runRecord{Workload: w.name, Seed: seed, Seconds: b.opts.seconds, Metrics: make(map[string]metric)}
	cfg := sessionConfig{origin: origin{seed: seed}, quick: b.opts.quick}
	repeats := setupRepeats
	if b.opts.quick {
		repeats = 1
	}
	kernelRate(b.window(warmShare))
	var s session
	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
		}
		// Epochs count down, so the window always runs on epoch 0.
		cfg.epoch = repeats - 1 - i
		start := time.Now()
		var err error
		if s, err = w.open(cfg); err != nil {
			return rec.fail(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()

	win := runWindow(s, w.callers, b.window(1), w.checkpoint)
	rec.record(win)
	rec.Parts = win.partStats()
	rec.KernelRate = secondBest(win.bursts, true)
	for name, m := range win.endToEndMetrics(rec.KernelRate) {
		rec.Metrics[name] = m
	}
	// The window starts where set-up ends, so its kernel rate serves both.
	sort.Float64s(setups)
	rec.Metrics["setup_s"] = metric{Value: calibrated(median(setups), rec.KernelRate), Unit: "s",
		Lo: calibrated(setups[0], rec.KernelRate), Hi: calibrated(setups[len(setups)-1], rec.KernelRate), Raw: median(setups)}
	b.check(&rec, s, win)
	if want, pinned := b.expected.Digests[w.name], s.pinnedDigest(); rec.Correct && !b.opts.quick &&
		seed == b.expected.Seed && pinned != "" && pinned != want {
		rec.fail(fmt.Errorf("first outputs hash to %s, expected.json pins %s", pinned, want))
	}
	return rec
}

// window is the measured time of a run's part.
func (b *bench) window(share float64) time.Duration {
	return time.Duration(b.opts.seconds * share * float64(time.Second))
}

// check applies the correctness gate to a finished window.
func (b *bench) check(rec *runRecord, s session, win window) {
	rec.Correct = true
	if win.err != nil {
		rec.fail(win.err)
	} else if rec.Failed > 0 {
		rec.fail(fmt.Errorf("%d of %d instances failed", rec.Failed, rec.Attempted))
	} else if rec.Attempted == 0 {
		rec.fail(fmt.Errorf("no operation completed"))
	} else if err := s.verify(); err != nil {
		rec.fail(err)
	}
}

func (rec *runRecord) record(win window) {
	rec.Ops, rec.Attempted, rec.Failed = win.totals()
}

func (rec *runRecord) fail(err error) runRecord {
	rec.Correct = false
	rec.Error = err.Error()
	if rec.Attempted == 0 {
		rec.Attempted, rec.Failed = 1, 1
	}
	return *rec
}

// tracedRun measures the per-layer metrics: a reference window with
// recording off, the same length again with spans recorded and the
// counting signature schemes in place, then the layer probes.
func (b *bench) tracedRun(w workload, seed int64) runRecord {
	rec := runRecord{Workload: w.name, Seed: seed, Trace: 1, Seconds: b.opts.seconds, Metrics: make(map[string]metric)}
	if b.tracer == nil {
		b.tracer = newTracer()
	}
	b.tracer.scope = w.name + "/"
	kernelRate(b.window(warmShare))
	// measure opens a session and runs one window on it; signs and tests
	// are the counting schemes' calls inside the window.
	var signs, tests int64
	measure := func(cfg sessionConfig) (session, window, error) {
		s, err := w.open(cfg)
		if err != nil {
			return nil, window{}, fmt.Errorf("set-up: %w", err)
		}
		signs, tests = signCalls.Load(), testCalls.Load()
		win := runWindow(s, w.callers, b.window(0.2), w.checkpoint)
		signs, tests = signCalls.Load()-signs, testCalls.Load()-tests
		return s, win, nil
	}
	s, win, err := measure(sessionConfig{origin: origin{seed, setupRepeats}, quick: b.opts.quick})
	if err != nil {
		return rec.fail(err)
	}
	s.close()
	reference := win.instPerS()

	s, win, err = measure(sessionConfig{origin: origin{seed, setupRepeats + 1}, quick: b.opts.quick, trace: b.tracer})
	if err != nil {
		return rec.fail(err)
	}
	defer s.close()
	recorded := win.instPerS()
	rec.record(win)
	b.check(&rec, s, win)

	if b.layers == nil {
		b.tracer.scope = "probe/"
		p := newProber(origin{seed, setupRepeats + 2}, b.opts.seconds, b.opts.quick, b.tracer)
		if b.layers, err = p.run(); err != nil {
			return rec.fail(fmt.Errorf("layer probes: %w", err))
		}
	}
	values := make(map[string]float64, len(perLayer))
	for name, v := range b.layers {
		values[name] = v
	}
	var facts *serveFacts
	if serve, ok := s.(*serveSession); ok {
		facts = serve.facts
	}
	for name, v := range serviceMetrics(facts) {
		values[name] = v
	}
	values["sig.signs_per_inst"] = float64(signs) / float64(rec.Attempted)
	values["sig.tests_per_inst"] = float64(tests) / float64(rec.Attempted)
	if reference > 0 {
		values["trace.overhead_pct"] = (reference - recorded) / reference * 100
	}
	for _, def := range perLayer {
		v, ok := values[def.name]
		if !ok {
			return rec.fail(fmt.Errorf("per-layer metric %s was not measured", def.name))
		}
		rec.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	return rec
}

// printRun prints a run's metrics by name with their units and, as the
// last line, the result object the driver reads.
func printRun(rec runRecord) error {
	fmt.Printf("\n== %s seed=%d trace=%d: %d ops, %d instances, %d failed\n", rec.Workload, rec.Seed, rec.Trace,
		rec.Ops, rec.Attempted, rec.Failed)
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]value)}
	for _, def := range defs {
		m, ok := rec.Metrics[def.name]
		if !ok {
			continue
		}
		spread := ""
		if m.Lo != 0 || m.Hi != 0 {
			spread = fmt.Sprintf("  [min %.6g, max %.6g; uncalibrated %.6g]", m.Lo, m.Hi, m.Raw)
		}
		fmt.Printf("%-36s %16.6g %-6s%s\n", def.name, m.Value, m.Unit, spread)
		last.Metrics[def.name] = value{m.Value, m.Unit}
	}
	if rec.Trace == 1 {
		printLadder(rec)
	}
	if rec.Error != "" {
		fmt.Printf("INCORRECT: %s\n", rec.Error)
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// printLadder prints each rung's self time under the traced metrics.
func printLadder(rec runRecord) {
	for _, suffix := range []string{".ed25519", ".hmac"} {
		rungs := make([]float64, len(ladderRungs))
		for i, name := range ladderRungs {
			rungs[i] = rec.Metrics[name+suffix].Value
		}
		fmt.Printf("ladder self time%s:", suffix)
		for i, self := range ladderSelfTimes(rungs) {
			fmt.Printf("  %s %.0f", ladderRungs[i], self)
		}
		fmt.Println(" ns")
	}
}

// writeOutputs writes results.json and the spans of the traced runs.
func (b *bench) writeOutputs(file resultFile) error {
	if err := os.MkdirAll(b.opts.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.opts.out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if b.tracer == nil {
		return nil
	}
	return b.tracer.writeJSONL(filepath.Join(b.opts.out, "trace.jsonl"))
}
