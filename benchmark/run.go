package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// opResult is what one operation did: dur is the caller-observed time of
// the call into the top layer (request generation and reply validation
// are outside it), insts the instances it attempted, failed those that
// errored, were rejected or came back non-conformant.
type opResult struct {
	dur    time.Duration
	insts  int
	failed int
	err    error
}

// session is one workload's live state: daemon, clients, caches.
type session interface {
	// op runs operation seq of a caller. Callers run concurrently, each
	// issuing its own operations one after another (closed loop).
	op(caller, seq int) opResult
	// verify runs the workload's untimed output checks after the window.
	verify() error
	// pinnedDigest hashes caller 0's first outputs ("" if the window
	// ended before they were all produced); expected.json pins it for
	// the default seed.
	pinnedDigest() string
	close()
}

// part is one of the equal parts a window is cut into. Callers stop at
// the end of a part (each finishes the operation it is in), the reference
// kernel runs a burst, and the next part starts.
type part struct {
	samples []opResult
	wall    time.Duration // part start to last completion
	cpu     time.Duration
}

// window is one timed run of a session.
type window struct {
	parts []part
	// bursts holds the kernel's rate before each part and after the last.
	bursts     []float64
	mallocs    uint64
	allocBytes uint64
	retained   uint64
	err        error // first operation error
}

// slices is how many parts a window is cut into. Every timing metric is
// computed per part and the second best part is reported (see
// secondBest).
const slices = 8

// kernelShare is the share of a window's time the reference kernel gets
// (slices+1 bursts, one before each part and one after the last).
const kernelShare = 0.2

// heapMark reads the live heap once, when a fixed number of instances
// has completed: retained memory is sampled at a fixed amount of work, so
// it stays comparable when throughput changes. The caller that crosses
// the mark arms it; every caller then stops at its next operation
// boundary, and the last one in forces a GC and reads the heap with no
// operation in flight (the other caller's working set is not retained
// memory). A window that never reaches the mark reads at its end.
type heapMark struct {
	mu       sync.Mutex
	target   int64
	done     int64
	running  int // callers still in the current part
	stopped  int // callers waiting at the mark
	armed    bool
	taken    bool
	resume   chan struct{}
	retained uint64
}

// completed counts an operation's instances and, while the mark is
// armed, holds the caller until the heap has been read.
func (m *heapMark) completed(insts int) {
	m.mu.Lock()
	m.done += int64(insts)
	if !m.taken && m.done >= m.target {
		m.armed = true
	}
	if !m.armed || m.taken {
		m.mu.Unlock()
		return
	}
	m.stopped++
	if m.stopped == m.running {
		m.take()
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	<-m.resume
}

// leave is called by a caller that has finished its part: the callers
// still running must not wait at the mark for it.
func (m *heapMark) leave() {
	m.mu.Lock()
	m.running--
	if m.armed && !m.taken && m.running > 0 && m.stopped == m.running {
		m.take()
	}
	m.mu.Unlock()
}

func (m *heapMark) take() {
	m.retained = retainedHeap()
	m.taken = true
	close(m.resume)
}

// runWindow drives the session's callers for d in all: slices parts of
// load with a burst of the reference kernel around each.
func runWindow(s session, callers int, d time.Duration, checkpoint int64) window {
	var w window
	burst := time.Duration(float64(d) * kernelShare / (slices + 1))
	partLen := time.Duration(float64(d) * (1 - kernelShare) / slices)
	mark := &heapMark{target: checkpoint, running: callers, resume: make(chan struct{})}
	seqs := make([]int, callers)
	var errMu sync.Mutex

	w.bursts = append(w.bursts, kernelRate(burst))
	for k := 0; k < slices; k++ {
		perCaller := make([][]opResult, callers)
		ends := make([]time.Duration, callers)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0 := cpuTime()
		start := time.Now()
		mark.running = callers
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				defer mark.leave()
				for time.Since(start) < partLen {
					seq := seqs[c]
					seqs[c]++
					r := s.op(c, seq)
					ends[c] = time.Since(start)
					perCaller[c] = append(perCaller[c], r)
					if r.err != nil {
						errMu.Lock()
						if w.err == nil {
							w.err = fmt.Errorf("caller %d op %d: %w", c, seq, r.err)
						}
						errMu.Unlock()
					}
					mark.completed(r.insts)
				}
			}(c)
		}
		wg.Wait()
		p := part{cpu: cpuTime() - cpu0}
		runtime.ReadMemStats(&after)
		w.mallocs += after.Mallocs - before.Mallocs
		w.allocBytes += after.TotalAlloc - before.TotalAlloc
		for c, samples := range perCaller {
			p.samples = append(p.samples, samples...)
			if ends[c] > p.wall {
				p.wall = ends[c]
			}
		}
		w.parts = append(w.parts, p)
		w.bursts = append(w.bursts, kernelRate(burst))
	}
	if w.retained = mark.retained; !mark.taken {
		w.retained = retainedHeap()
	}
	return w
}

// totals returns the operations completed and the instances attempted
// and failed in the window.
func (w window) totals() (ops, attempted, failed int) {
	for _, p := range w.parts {
		ops += len(p.samples)
		for _, s := range p.samples {
			attempted += s.insts
			failed += s.failed
		}
	}
	return ops, attempted, failed
}

// instPerS is the window's conformant instances per second of load, as
// the clock read it.
func (w window) instPerS() float64 {
	_, attempted, failed := w.totals()
	var wall time.Duration
	for _, p := range w.parts {
		wall += p.wall
	}
	if wall == 0 {
		return 0
	}
	return float64(attempted-failed) / wall.Seconds()
}

// partStat is one part's timing values as the clock read them.
type partStat struct {
	Ops      int     `json:"ops"`
	InstPerS float64 `json:"inst_per_s"`
	P50us    float64 `json:"latency_p50_us"`
	P90us    float64 `json:"latency_p90_us"`
	P99us    float64 `json:"latency_p99_us"`
	CPUms    float64 `json:"cpu_ms_per_inst"`
}

func (w window) partStats() []partStat {
	var out []partStat
	for _, p := range w.parts {
		if len(p.samples) == 0 {
			continue
		}
		conformant := 0
		durs := make([]float64, 0, len(p.samples))
		for _, s := range p.samples {
			conformant += s.insts - s.failed
			durs = append(durs, float64(s.dur.Nanoseconds())/1e3)
		}
		if conformant == 0 {
			continue
		}
		sort.Float64s(durs)
		out = append(out, partStat{
			Ops:      len(p.samples),
			InstPerS: float64(conformant) / p.wall.Seconds(),
			P50us:    percentile(durs, 50),
			P90us:    percentile(durs, 90),
			P99us:    percentile(durs, 99),
			CPUms:    float64(p.cpu.Nanoseconds()) / 1e6 / float64(conformant),
		})
	}
	return out
}

// metric is one reported value. For a timing, Lo and Hi are the spread
// over window parts (or set-up repetitions) and Raw is the value before
// calibration, as the clock read it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Lo    float64 `json:"min,omitempty"`
	Hi    float64 `json:"max,omitempty"`
	Raw   float64 `json:"raw,omitempty"`
}

// secondBest returns the second best of vals (the best when there is
// only one), best being the largest when higher is set and the smallest
// otherwise. Interference on a shared box only ever slows a part down, so
// the undisturbed value lies at the good end of the parts, not in their
// middle; the best part alone would reward one lucky part. The second
// best of eight holds against one lucky part and six disturbed ones.
func secondBest(vals []float64, higher bool) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	switch {
	case len(s) == 0:
		return 0
	case len(s) == 1:
		return s[0]
	case higher:
		return s[len(s)-2]
	}
	return s[1]
}

// overParts reports a timing as the second best part in calibrated time
// at the given kernel rate, with the minimum and maximum over parts and
// the second best as the clock read it. rate marks a rate (1/time).
func overParts(stats []partStat, unit string, kernel float64, rate bool, pick func(partStat) float64) metric {
	if len(stats) == 0 {
		return metric{Unit: unit}
	}
	vals := make([]float64, len(stats))
	for i, s := range stats {
		vals[i] = pick(s)
	}
	scale := func(v float64) float64 {
		if rate {
			return 1 / calibrated(1/v, kernel)
		}
		return calibrated(v, kernel)
	}
	raw := secondBest(vals, rate)
	sort.Float64s(vals)
	lo, hi := scale(vals[0]), scale(vals[len(vals)-1])
	return metric{Value: scale(raw), Unit: unit, Lo: lo, Hi: hi, Raw: raw}
}

// endToEndMetrics derives every end-to-end metric but setup_s; kernel is
// the run's kernel rate.
func (w window) endToEndMetrics(kernel float64) map[string]metric {
	stats := w.partStats()
	_, attempted, failed := w.totals()
	perInst := func(total float64) float64 {
		if attempted == failed {
			return 0
		}
		return total / float64(attempted-failed)
	}
	return map[string]metric{
		"inst_per_s":        overParts(stats, "1/s", kernel, true, func(s partStat) float64 { return s.InstPerS }),
		"latency_p50_us":    overParts(stats, "us", kernel, false, func(s partStat) float64 { return s.P50us }),
		"latency_p90_us":    overParts(stats, "us", kernel, false, func(s partStat) float64 { return s.P90us }),
		"cpu_ms_per_inst":   overParts(stats, "ms", kernel, false, func(s partStat) float64 { return s.CPUms }),
		"allocs_per_inst":   {Value: perInst(float64(w.mallocs)), Unit: "count"},
		"alloc_kb_per_inst": {Value: perInst(float64(w.allocBytes) / 1024), Unit: "KiB"},
		"retained_heap_mb":  {Value: float64(w.retained) / (1 << 20), Unit: "MiB"},
	}
}
