package campaign

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// ReportSchema identifies the report JSON layout for downstream tooling.
const ReportSchema = "fdcampaign/v1"

// GroupSummary aggregates all seeded repetitions of one configuration.
type GroupSummary struct {
	Key       string `json:"key"`
	Protocol  string `json:"protocol"`
	N         int    `json:"n"`
	T         int    `json:"t"`
	Scheme    string `json:"scheme,omitempty"`
	Adversary string `json:"adversary"`
	// NetCond names the group's network condition ("" for ideal, so
	// pre-netcond reports keep their exact bytes).
	NetCond string `json:"netcond,omitempty"`
	// Instances is the number of runs in the group; Errors of them
	// failed to run and contribute to no other field.
	Instances int `json:"instances"`
	Errors    int `json:"errors"`
	// AgreeRate and DiscoveryRate are fractions of the non-error runs.
	AgreeRate     float64 `json:"agree_rate"`
	DiscoveryRate float64 `json:"discovery_rate"`
	// Conformant counts the non-error runs whose conformance verdict has
	// no unexcused predicate failures; Violations lists the distinct
	// violated predicates observed across the group's runs (sorted).
	Conformant int      `json:"conformant"`
	Violations []string `json:"violations,omitempty"`
	// Distributions over the non-error runs.
	Rounds         metrics.Dist `json:"rounds"`
	CommRounds     metrics.Dist `json:"comm_rounds"`
	Messages       metrics.Dist `json:"messages"`
	Bytes          metrics.Dist `json:"bytes"`
	SignedMessages metrics.Dist `json:"signed_messages"`
}

// Report is a completed campaign: the spec, every per-instance result in
// expansion order, and the per-group aggregates. It deliberately records
// nothing about HOW the campaign ran (worker count, timing, host), so
// marshaling it is byte-identical for any worker count — the determinism
// contract, enforced by TestReportWorkerCountInvariance.
type Report struct {
	Schema    string         `json:"schema"`
	Name      string         `json:"name"`
	Spec      Spec           `json:"spec"`
	Instances int            `json:"instances"`
	Groups    []GroupSummary `json:"groups"`
	Results   []Result       `json:"results"`
}

// CanonicalJSON is the canonical report serialization (indented,
// trailing newline): cmd/fdcampaign emits it and the differential tests
// compare it, so there is exactly one byte representation per report.
func (r *Report) CanonicalJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Option configures one Run call.
type Option func(*runConfig)

type runConfig struct {
	setupCache  bool
	cacheCap    int
	rec         *obs.Recorder
	instTimeout time.Duration
}

// WithObserver attaches a structured-event recorder to the run: every
// executor stamps one "campaign.instance" span per instance with its
// wall-time, verdict, and setup-cache outcome. Observation is a pure
// reader — the report stays byte-identical with or without it
// (TestReportObserverInvariance) — so wall-clock timing, which the
// deterministic report deliberately omits, lives only in the trace.
// Recorders are safe to share across the local scheduler's shards.
func WithObserver(rec *obs.Recorder) Option {
	return func(c *runConfig) { c.rec = rec }
}

// WithoutSetupCache runs without a setup store at all, forcing every
// instance to regenerate key material and redo the key-distribution
// handshake from scratch. It exists as the differential baseline: a
// cached and an uncached run of the same spec must produce
// byte-identical reports (TestReportSetupCacheInvariance and the CI
// campaign differential enforce it), so setup reuse can never silently
// change what a campaign measures.
func WithoutSetupCache() Option {
	return func(c *runConfig) { c.setupCache = false }
}

// ErrInstanceTimeout is the fixed Err string recorded for instances the
// watchdog parked. Fixed so a timed-out instance contributes the same
// report bytes no matter which worker hit the deadline.
const ErrInstanceTimeout = "campaign: instance watchdog timeout"

// ErrDriverPanic is the fixed Err string recorded for an instance whose
// driver panicked, whichever layer contained it: the watchdog goroutine
// here, sched.RunWorker, or service.Server. Fixed so a report's bytes
// depend neither on that layer nor on the panic value, and a reply
// carries no memory addresses or stack text to a client.
const ErrDriverPanic = "campaign: driver panicked"

// WithInstanceTimeout arms a per-instance watchdog: an instance still
// running after d is abandoned and recorded as an error with
// ErrInstanceTimeout, so one livelocked combination cannot hang a whole
// sweep. Default off (zero): the watchdog measures wall time, so arming
// it trades the strict any-worker-count byte-identity guarantee for
// liveness — only results near the deadline can differ, and only by
// becoming this fixed error.
func WithInstanceTimeout(d time.Duration) Option {
	return func(c *runConfig) { c.instTimeout = d }
}

// Scheduler abstracts HOW a campaign's expanded instances execute: the
// in-process sharded pool (Local), or the fault-tolerant
// coordinator/worker scheduler (internal/sched) that leases batches to
// remote workers over a transport. The contract is positional: Execute
// returns exactly one Result per instance, slot i holding instances[i]'s
// outcome, so the engine assembles the report from the slice and any two
// schedulers that produce the same per-instance results produce
// byte-identical reports — worker count, placement, and retry history
// included.
type Scheduler interface {
	Execute(spec Spec, instances []Instance) ([]Result, error)
}

// Executor runs instances over one amortized-setup store; it is the
// execution unit every Scheduler builds on (one per Local sweep, shared
// by its workers; one per remote worker process). It holds nothing an
// instance can change — the store's material is read-only and each
// instance gets its own cluster around it — so it is safe for concurrent
// use, and a panicked or abandoned run leaves nothing to repair.
type Executor struct {
	cache   *protocol.SetupCache
	rec     *obs.Recorder
	timeout time.Duration
}

// NewExecutor builds an executor honoring the run options (setup store
// enabled by default).
func NewExecutor(opts ...Option) *Executor {
	cfg := runConfig{setupCache: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	e := &Executor{rec: cfg.rec, timeout: cfg.instTimeout}
	if cfg.setupCache {
		e.cache = protocol.NewSetupCache(cfg.cacheCap)
	}
	return e
}

// Run executes one instance, reusing the store's established material
// where the driver allows it. With an instance timeout armed, the run is
// raced against the watchdog (see WithInstanceTimeout). The watchdog
// branch lives in its own method so the goroutine closure there cannot
// make inst escape on this, the default, path — escape analysis is
// function-wide, and the sweep benchmarks hold this path allocation-flat.
func (e *Executor) Run(inst Instance) Result {
	if e.timeout <= 0 {
		return e.run(inst)
	}
	return e.runWatched(inst)
}

// runWatched races the instance against the armed watchdog timer. The
// driver runs on a goroutine of its own, out of reach of any caller's
// recover, so a panic is contained there and reported like a timeout: a
// fixed Err. The parked goroutine keeps running over material nobody
// writes, so the store stays in service.
func (e *Executor) runWatched(inst Instance) Result {
	done := make(chan Result, 1)
	panicked := make(chan struct{})
	go func() {
		defer func() {
			if recover() != nil {
				close(panicked)
			}
		}()
		done <- e.run(inst)
	}()
	timer := time.NewTimer(e.timeout)
	defer timer.Stop()
	var failed string
	select {
	case res := <-done:
		return res
	case <-panicked:
		failed = ErrDriverPanic
	case <-timer.C:
		failed = ErrInstanceTimeout
		if e.rec.Enabled() {
			e.rec.Emit(obs.Event{Kind: obs.KindPoint, Scope: "campaign.watchdog",
				Inst: inst.Index, Proto: inst.Protocol, Node: -1,
				Attrs: obs.Attrs("group", inst.GroupKey(), "seed", inst.Seed,
					"timeout", e.timeout.String())})
		}
	}
	return Result{Index: inst.Index, Group: inst.GroupKey(), Seed: inst.Seed, Err: failed}
}

// run executes one instance. With an observer attached it brackets the
// run in a "campaign.instance" span carrying the wall-time and verdict
// the deterministic report cannot, and how this instance's own setup
// lookup was served (cache=hit|miss|wait, off when it made none) — read
// off the lookup, not the store's counters, which every worker moves.
func (e *Executor) run(inst Instance) Result {
	if !e.rec.Enabled() {
		return RunInstanceWith(inst, e.cache)
	}
	served := "off"
	span := e.rec.Begin(obs.Event{Scope: "campaign.instance",
		Inst: inst.Index, Proto: inst.Protocol, Node: -1,
		Attrs: obs.Attrs("group", inst.GroupKey(), "seed", inst.Seed)})
	res := runInstance(inst, e.cache, &served)
	verdict := "ok"
	if res.Err != "" {
		verdict = "err"
	}
	span.End(obs.Attrs("verdict", verdict, "agreed", res.Agreed,
		"discovered", res.Discovered, "conformant", res.Conformance.Conformant(),
		"cache", served))
	return res
}

// Local is the in-process Scheduler: workers goroutines (one per CPU if
// workers < 1) over one Executor, so one setup store — a sweep pays key
// generation and the handshake once per (scheme, n, keySeed) cell,
// whatever the worker count. The store cannot affect the report: key
// material is pinned by Instance.KeySeed whether or not it is cached.
//
// Each worker walks its own contiguous block of the expansion order (see
// blocks), so workers sit in different cells instead of reaching every
// new cell together and queueing on its build; one that finishes early
// steals from the far end of the fullest block left. The blocks are made
// of chunks (see chunkCuts), which follow the groups but are cut from the
// sweep's length, not its shape: a sweep of one group runs on every
// worker too. Every result lands in its instance's slot, so the aggregate
// is identical however they raced.
type Local struct {
	workers int
	opts    []Option
}

// NewLocal builds the in-process scheduler.
func NewLocal(workers int, opts ...Option) *Local {
	return &Local{workers: workers, opts: opts}
}

// Execute implements Scheduler.
func (l *Local) Execute(_ Spec, instances []Instance) ([]Result, error) {
	return l.executeOn(NewExecutor(l.opts...), instances), nil
}

// executeOn runs the instances on the workers, all sharing exec.
func (l *Local) executeOn(exec *Executor, instances []Instance) []Result {
	workers := l.workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > len(instances) {
		workers = len(instances)
	}
	cuts := chunkCuts(instances, workers)
	results := make([]Result, len(instances))
	var mu sync.Mutex // guards left
	left := newBlocks(len(cuts)-1, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				c, ok := left.take(w)
				mu.Unlock()
				if !ok {
					return
				}
				for i := cuts[c]; i < cuts[c+1]; i++ {
					results[i] = exec.Run(instances[i])
				}
			}
		}(w)
	}
	wg.Wait()
	return results
}

// chunksPerWorker caps a chunk's length: a sweep is cut into at least this
// many chunks per worker, so that one configuration swept over many seeds
// — a single group — still spreads over all of them, and what a worker
// can be left finishing alone is a quarter of its share.
const chunksPerWorker = 4

// chunkCuts cuts the instance order into chunks: runs of consecutive
// instances of one group — in expansion order (seeds innermost) one
// configuration's seed sweep — split further wherever a run outgrows
// ceil(len(instances) / (workers × chunksPerWorker)). Chunk c is
// instances[cuts[c]:cuts[c+1]].
func chunkCuts(instances []Instance, workers int) []int {
	if len(instances) == 0 {
		return []int{0}
	}
	longest := (len(instances) + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	cuts := []int{0}
	for i := 1; i < len(instances); i++ {
		if i-cuts[len(cuts)-1] == longest || !instances[i].sameGroup(instances[i-1]) {
			cuts = append(cuts, i)
		}
	}
	return append(cuts, len(instances))
}

// blocks is the work left in a sweep: worker w owns the chunks
// [next[w], end[w]), one contiguous stretch of the order per worker —
// the batch shape sched's leases have.
type blocks struct {
	next, end []int
}

// newBlocks splits chunks 0..chunks-1 evenly into one block per worker.
func newBlocks(chunks, workers int) blocks {
	b := blocks{next: make([]int, workers), end: make([]int, workers)}
	for w := range b.next {
		b.next[w], b.end[w] = w*chunks/workers, (w+1)*chunks/workers
	}
	return b
}

// take hands worker w its next chunk: the head of its own block, in
// order, and once that is empty the tail chunk of the fullest block
// left (the lowest-numbered on a tie) — the far end from where that
// block's owner is working. ok is false when every chunk is handed out.
func (b blocks) take(w int) (chunk int, ok bool) {
	if b.next[w] < b.end[w] {
		b.next[w]++
		return b.next[w] - 1, true
	}
	victim, most := 0, 0
	for v := range b.next {
		if left := b.end[v] - b.next[v]; left > most {
			victim, most = v, left
		}
	}
	if most == 0 {
		return 0, false
	}
	b.end[victim]--
	return b.end[victim], true
}

// RunWith expands the spec, executes every instance through the given
// scheduler, and assembles the canonical report. This is the seam the
// distributed scheduler plugs into: the expansion and aggregation ends
// stay in one process (the coordinator), and only the execution middle
// is pluggable — which is exactly what keeps the report a pure function
// of the Spec.
func RunWith(spec Spec, sched Scheduler) (*Report, error) {
	instances, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	results, err := sched.Execute(spec, instances)
	if err != nil {
		return nil, err
	}
	if len(results) != len(instances) {
		return nil, fmt.Errorf("campaign: scheduler returned %d results for %d instances", len(results), len(instances))
	}
	return assemble(spec.withDefaults(), instances, results), nil
}

// Run executes the spec on the in-process sharded scheduler; see Local.
func Run(spec Spec, workers int, opts ...Option) (*Report, error) {
	return RunWith(spec, NewLocal(workers, opts...))
}

// groupCount accumulates one group's tallies during assembly.
type groupCount struct {
	total, errors, agreed, discovered, conformant int
	violations                                    map[string]bool
}

// assemble streams the results, in instance order, through the metrics
// aggregation layer and builds the report.
func assemble(spec Spec, instances []Instance, results []Result) *Report {
	sweep := metrics.NewSweep()
	counts := make(map[string]*groupCount)
	for _, res := range results {
		key := res.Group
		if _, ok := counts[key]; !ok {
			counts[key] = &groupCount{violations: make(map[string]bool)}
		}
		c := counts[key]
		c.total++
		if res.Err != "" {
			c.errors++
			continue
		}
		if res.Agreed {
			c.agreed++
		}
		if res.Discovered {
			c.discovered++
		}
		if res.Conformance.Conformant() {
			c.conformant++
		} else if res.Conformance != nil {
			for _, v := range res.Conformance.Violations {
				c.violations[v] = true
			}
		}
		sweep.Observe(key, "rounds", float64(res.Rounds))
		sweep.Observe(key, "comm_rounds", float64(res.CommRounds))
		sweep.Observe(key, "messages", float64(res.Messages))
		sweep.Observe(key, "bytes", float64(res.Bytes))
		sweep.Observe(key, "signed_messages", float64(res.SignedMessages))
	}

	rep := &Report{
		Schema:    ReportSchema,
		Name:      spec.Name,
		Spec:      spec,
		Instances: len(results),
		Results:   results,
	}
	// Group order: first appearance in instance order, which is the
	// expansion order — deterministic.
	seen := make(map[string]bool)
	for _, inst := range instances {
		key := inst.GroupKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		c := counts[key]
		g := GroupSummary{
			Key:            key,
			Protocol:       inst.Protocol,
			N:              inst.N,
			T:              inst.T,
			Scheme:         inst.Scheme,
			Adversary:      inst.Adversary,
			NetCond:        inst.NetCond,
			Instances:      c.total,
			Errors:         c.errors,
			Conformant:     c.conformant,
			Violations:     sortedKeys(c.violations),
			Rounds:         sweep.Dist(key, "rounds"),
			CommRounds:     sweep.Dist(key, "comm_rounds"),
			Messages:       sweep.Dist(key, "messages"),
			Bytes:          sweep.Dist(key, "bytes"),
			SignedMessages: sweep.Dist(key, "signed_messages"),
		}
		if ok := c.total - c.errors; ok > 0 {
			g.AgreeRate = float64(c.agreed) / float64(ok)
			g.DiscoveryRate = float64(c.discovered) / float64(ok)
		}
		rep.Groups = append(rep.Groups, g)
	}
	return rep
}

// sortedKeys returns a map's keys in ascending order (nil when empty, so
// the JSON field stays omitted).
func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Violations counts the instances whose conformance verdict records at
// least one unexcused predicate failure. A campaign with zero violations
// is a passed property test over its whole grid.
func (r *Report) Violations() int {
	total := 0
	for _, res := range r.Results {
		if res.Err == "" && !res.Conformance.Conformant() {
			total++
		}
	}
	return total
}

// Table renders the per-group aggregates as a human table.
func (r *Report) Table() *metrics.Table {
	title := fmt.Sprintf("Campaign %q — %d instances, %d groups", r.Name, r.Instances, len(r.Groups))
	tbl := metrics.NewTable(title,
		"protocol", "n", "t", "scheme", "adversary", "netcond", "runs", "errs",
		"agree", "discover", "conform", "msgs mean", "msgs p99", "bytes mean", "rounds mean")
	for _, g := range r.Groups {
		scheme := g.Scheme
		if scheme == "" {
			scheme = "-"
		}
		nc := g.NetCond
		if nc == "" {
			nc = "-"
		}
		conform := 0.0
		if ok := g.Instances - g.Errors; ok > 0 {
			conform = float64(g.Conformant) / float64(ok)
		}
		tbl.AddRow(g.Protocol, g.N, g.T, scheme, g.Adversary, nc, g.Instances, g.Errors,
			g.AgreeRate, g.DiscoveryRate, conform, g.Messages.Mean, g.Messages.P99,
			g.Bytes.Mean, g.Rounds.Mean)
	}
	return tbl
}
