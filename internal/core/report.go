package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/fd"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Phase identifies which protocol phase a report describes.
type Phase uint8

// Phases.
const (
	// PhaseKeyDist is the local-authentication establishment (Fig. 1).
	PhaseKeyDist Phase = iota + 1
	// PhaseFD is one failure-discovery run.
	PhaseFD
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseKeyDist:
		return "keydist"
	case PhaseFD:
		return "fd"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Report summarizes one protocol phase execution.
type Report struct {
	// Phase identifies the protocol phase.
	Phase Phase
	// Protocol is the FD protocol used (PhaseFD only).
	Protocol Protocol
	// Rounds is the number of lockstep rounds executed.
	Rounds int
	// Snapshot holds the traffic statistics.
	Snapshot metrics.Snapshot
	// Outcomes holds the terminal state of every correct node (PhaseFD).
	Outcomes []model.Outcome
	// Discoveries lists every failure discovered by a correct node.
	Discoveries []model.Discovery
}

// Decided returns the outcomes that chose a value.
func (r Report) Decided() []model.Outcome {
	var out []model.Outcome
	for _, o := range r.Outcomes {
		if o.Decided {
			out = append(out, o)
		}
	}
	return out
}

// FailureDiscovered reports whether any correct node discovered a failure.
func (r Report) FailureDiscovered() bool { return len(r.Discoveries) > 0 }

// AgreedValue returns the common decision value if every correct node
// decided and all values agree. ok is false otherwise.
func (r Report) AgreedValue() (value []byte, ok bool) {
	if len(r.Outcomes) == 0 {
		return nil, false
	}
	for i, o := range r.Outcomes {
		if !o.Decided {
			return nil, false
		}
		if i > 0 && string(o.Value) != string(r.Outcomes[0].Value) {
			return nil, false
		}
	}
	return r.Outcomes[0].Value, true
}

// String summarizes the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%v", r.Phase)
	if r.Phase == PhaseFD {
		fmt.Fprintf(&b, "/%v", r.Protocol)
	}
	fmt.Fprintf(&b, "] %s", r.Snapshot)
	if len(r.Discoveries) > 0 {
		fmt.Fprintf(&b, " discoveries=%d", len(r.Discoveries))
	}
	return b.String()
}

// Ledger accumulates per-phase traffic across a cluster's lifetime and
// answers the paper's amortization question: after how many
// failure-discovery runs has the one-off key-distribution cost paid for
// itself against the non-authenticated baseline? The zero value is an
// empty ledger.
type Ledger struct {
	mu      sync.Mutex
	reports []Report
}

// Reset clears the ledger in place, so handles previously returned by
// Cluster.Ledger stay valid across Cluster.Reset.
func (l *Ledger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reports = nil
}

// Add appends a phase report.
func (l *Ledger) Add(r Report) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reports = append(l.reports, r)
}

// Reports returns a copy of all phase reports in order.
func (l *Ledger) Reports() []Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Report, len(l.reports))
	copy(out, l.reports)
	return out
}

// TotalMessages returns the messages recorded across all phases.
func (l *Ledger) TotalMessages() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0
	for _, r := range l.reports {
		total += r.Snapshot.Messages
	}
	return total
}

// KeyDistMessages returns the messages spent on authentication phases.
func (l *Ledger) KeyDistMessages() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0
	for _, r := range l.reports {
		if r.Phase == PhaseKeyDist {
			total += r.Snapshot.Messages
		}
	}
	return total
}

// FDRuns returns the number of failure-discovery runs recorded.
func (l *Ledger) FDRuns() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	runs := 0
	for _, r := range l.reports {
		if r.Phase == PhaseFD {
			runs++
		}
	}
	return runs
}

// Amortization is the measured cost comparison after k runs.
type Amortization struct {
	// N, T are the system parameters.
	N, T int
	// Runs is the number of FD runs compared.
	Runs int
	// LocalAuthTotal is keydist cost plus Runs× authenticated-run cost.
	LocalAuthTotal int
	// NonAuthTotal is Runs× baseline-run cost.
	NonAuthTotal int
	// CrossoverRun is the smallest k at which LocalAuthTotal ≤
	// NonAuthTotal, computed from the per-run costs; 0 if never.
	CrossoverRun int
}

// AmortizationFor computes the paper's headline comparison analytically
// from the protocol cost formulas for a system of n nodes and fault bound
// t, over k failure-discovery runs.
func AmortizationFor(n, t, k int) Amortization {
	a := Amortization{
		N:              n,
		T:              t,
		Runs:           k,
		LocalAuthTotal: keydist.ExpectedMessages(n) + k*fd.ChainMessages(n, t),
		NonAuthTotal:   k * fd.NonAuthMessages(n, t),
	}
	perRunSaving := fd.NonAuthMessages(n, t) - fd.ChainMessages(n, t)
	if perRunSaving > 0 {
		// Smallest k with keydist + k(n−1) ≤ k(t+1)(n−1).
		a.CrossoverRun = (keydist.ExpectedMessages(n) + perRunSaving - 1) / perRunSaving
	}
	return a
}
