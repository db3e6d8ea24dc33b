package fd_test

// The three chain-protocol node types as they stood before they became one
// chain run (chainRun in chain.go), kept verbatim as the oracles of
// FuzzChainVariantsMatchReference: names take a ref prefix, package fd's
// exported names its qualifier, and the helpers the node types never call
// (the message-count formulas, MarshalVectorPayload) are left out.

import (
	"errors"
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
)

// refChainNode implements the authenticated Failure Discovery protocol of
// paper Fig. 2, verbatim:
//
//	Protocol for P_0:
//	  send value {v}_{S_0} to P_1
//	Protocol for P_i, 1 ≤ i < t:
//	  receive m = {S_{i-1}, …, {S_0, {v}_{S_0}} …}_{S_{i-1}} from P_{i-1}
//	  check the signatures of the message and the submessages
//	  if negative then discover failure and stop
//	  else accept v and send {S_{i-1}, m}_{S_i} to P_{i+1}
//	Protocol for P_t:
//	  receive, check; if negative discover failure and stop
//	  else accept v and send {S_{t-1}, m}_{S_t} to P_{t+1} … P_n
//	Protocol for P_{t+1} … P_n:
//	  receive, check; if negative discover failure, else accept v
//
// The run uses the minimal n−1 messages. Every message is chain-signed
// with assignee names, so by Theorem 4 all correct nodes assign every
// sub-message to the same node or some correct node discovers a failure —
// which is exactly what makes the protocol sound under mere local
// authentication (paper §4.1).
type refChainNode struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
	dir    sig.Directory
	role   fd.Role

	// value is the initial value (sender only).
	value []byte

	outcome  model.Outcome
	stopped  bool
	finished bool
	// gotChain marks that the expected chain message arrived on schedule.
	gotChain bool
	// evidence is the strongest chain this node can present for its
	// accepted value: the sender's initial chain, a relay's or the
	// disseminator's extended chain, or the tail's received full chain.
	// The FD→BA extension floods it during fallback.
	evidence sig.Chain
}

// refChainOption configures a refChainNode.
type refChainOption func(*refChainNode)

// refWithValue sets the sender's initial value. Only meaningful for P_0.
func refWithValue(v []byte) refChainOption {
	return func(n *refChainNode) { n.value = append([]byte(nil), v...) }
}

// newRefChainNode builds a correct participant for one chain-protocol run.
// The signer and directory normally come from a completed key-distribution
// run (local authentication); a shared MapDirectory models global
// authentication instead.
func newRefChainNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, opts ...refChainOption) (*refChainNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !id.Valid(cfg.N) {
		return nil, fmt.Errorf("fd: node id %v out of range for n=%d", id, cfg.N)
	}
	if signer == nil || dir == nil {
		return nil, errors.New("fd: chain node needs a signer and a directory")
	}
	n := &refChainNode{
		id:     id,
		cfg:    cfg,
		signer: signer,
		dir:    dir,
		role:   fd.RoleOf(id, cfg.T),
	}
	n.outcome.Node = id
	for _, opt := range opts {
		opt(n)
	}
	if id == fd.Sender && n.value == nil {
		return nil, errors.New("fd: sender needs refWithValue")
	}
	return n, nil
}

// Outcome implements Outcomer.
func (n *refChainNode) Outcome() model.Outcome { return n.outcome }

// Finished implements sim.Finisher.
func (n *refChainNode) Finished() bool { return n.finished }

// expectRound returns the engine round in which this node's chain message
// arrives in failure-free runs: P_i receives in round i+1 (the sender's
// message is sent in round 1, delivered at the round-2 step), and the tail
// receives the disseminated chain in round t+2.
func (n *refChainNode) expectRound() int {
	if n.role == fd.RoleTail {
		return n.cfg.T + 2
	}
	return int(n.id) + 1
}

// expectFrom returns the sender this node's chain message must come from.
func (n *refChainNode) expectFrom() model.NodeID {
	if n.role == fd.RoleTail {
		return model.NodeID(n.cfg.T)
	}
	return n.id - 1
}

// Step implements the sim Process contract.
func (n *refChainNode) Step(round int, received []model.Message) []model.Message {
	if n.stopped {
		// "discover failure and stop": a stopped node ignores the rest of
		// the run.
		return nil
	}
	// Any message outside the node's single expected (round, sender, kind)
	// slot deviates from every failure-free run.
	var out []model.Message
	for _, m := range received {
		if n.stopped {
			break
		}
		if round == n.expectRound() && m.From == n.expectFrom() &&
			m.Kind == model.KindChainValue && !n.gotChain {
			n.gotChain = true
			out = append(out, n.handleChain(round, m)...)
			continue
		}
		n.discover(round, model.ReasonUnexpectedMessage,
			fmt.Sprintf("%v message from %v in round %d", m.Kind, m.From, round))
	}
	if n.stopped {
		return nil
	}
	switch {
	case round == 1 && n.id == fd.Sender:
		out = append(out, n.startChain()...)
		n.finished = true
	case round == n.expectRound() && !n.gotChain && n.id != fd.Sender:
		// Deadline passed with no chain message: no failure-free run is
		// silent here, so the absence itself is a discovered failure.
		n.discover(round, model.ReasonMissingMessage,
			fmt.Sprintf("no chain message from %v by round %d", n.expectFrom(), round))
	}
	if round >= fd.ChainEngineRounds(n.cfg.T) {
		n.finished = true
	}
	return out
}

// startChain is P_0's single action: sign the value and send it to P_1,
// or — when t = 0 — disseminate it to everyone directly.
func (n *refChainNode) startChain() []model.Message {
	chain, err := sig.NewChain(n.value, n.signer)
	if err != nil {
		panic(fmt.Sprintf("fd: %v signing value: %v", n.id, err))
	}
	n.evidence = chain
	n.decide(n.value)
	payload := chain.Marshal()
	if n.cfg.T == 0 {
		return model.AppendBroadcast(make([]model.Message, 0, n.cfg.N-1), n.cfg.N, n.id, model.KindChainValue, payload)
	}
	return []model.Message{{To: fd.Sender + 1, Kind: model.KindChainValue, Payload: payload}}
}

// handleChain performs the "check the signatures of the message and the
// submessages" step and the role-specific continuation.
func (n *refChainNode) handleChain(round int, m model.Message) []model.Message {
	chain, err := sig.UnmarshalChain(m.Payload)
	if err != nil {
		n.discover(round, model.ReasonBadFormat, fmt.Sprintf("chain from %v: %v", m.From, err))
		return nil
	}
	// In a failure-free run P_i's chain has exactly i signatures
	// (S_0 … S_{i-1}); the tail's has t+1.
	wantLen := int(n.id)
	if n.role == fd.RoleTail {
		wantLen = n.cfg.T + 1
	}
	if chain.Len() != wantLen {
		n.discover(round, model.ReasonBadChain,
			fmt.Sprintf("chain from %v has %d signatures, want %d", m.From, chain.Len(), wantLen))
		return nil
	}
	if err := n.verifyChain(chain, m.From); err != nil {
		reason := model.ReasonBadChain
		switch {
		case errors.Is(err, sig.ErrChainUnknownSigner):
			reason = model.ReasonUnknownKey
		case errors.Is(err, sig.ErrChainBadSignature):
			reason = model.ReasonBadSignature
		}
		n.discover(round, reason, fmt.Sprintf("chain from %v: %v", m.From, err))
		return nil
	}
	n.decide(chain.Value())
	switch n.role {
	case fd.RoleRelay:
		next, err := chain.Extend(m.From, n.signer)
		if err != nil {
			panic(fmt.Sprintf("fd: %v extending chain: %v", n.id, err))
		}
		n.evidence = next
		n.finished = true
		return []model.Message{{To: n.id + 1, Kind: model.KindChainValue, Payload: next.Marshal()}}
	case fd.RoleDisseminator:
		next, err := chain.Extend(m.From, n.signer)
		if err != nil {
			panic(fmt.Sprintf("fd: %v extending chain: %v", n.id, err))
		}
		n.evidence = next
		payload := next.Marshal()
		out := make([]model.Message, 0, n.cfg.N-1-n.cfg.T)
		for j := n.cfg.T + 1; j < n.cfg.N; j++ {
			out = append(out, model.Message{To: model.NodeID(j), Kind: model.KindChainValue, Payload: payload})
		}
		n.finished = true
		return out
	default: // fd.RoleTail
		n.evidence = chain
		n.finished = true
		return nil
	}
}

// EvidenceChain returns the strongest chain this node can present for its
// accepted value: its signer sequence is the consecutive prefix
// P_0 … P_{k-1}. It is nil when the node accepted nothing.
func (n *refChainNode) EvidenceChain() sig.Chain { return n.evidence }

// verifyChain checks every layer of the chain and that the signer
// sequence is exactly P_0 … P_{len-1} — the only sequence a failure-free
// run of Fig. 2 produces.
func (n *refChainNode) verifyChain(chain sig.Chain, from model.NodeID) error {
	signers, err := chain.Verify(from, n.dir)
	if err != nil {
		return err
	}
	for k, s := range signers {
		if s != model.NodeID(k) {
			return fmt.Errorf("%w: layer %d assigned to %v, want %v",
				sig.ErrChainBadSignature, k, s, model.NodeID(k))
		}
	}
	return nil
}

// decide records the node's decision value ("accept v").
func (n *refChainNode) decide(v []byte) {
	n.outcome.Decided = true
	n.outcome.Value = append([]byte(nil), v...)
}

// discover records a discovered failure and stops the node, per Fig. 2's
// "discover failure and stop". Discovery overrides any earlier decision:
// the node's view has left every failure-free run.
func (n *refChainNode) discover(round int, reason model.FailureReason, detail string) {
	d := model.Discovery{Node: n.id, Round: round, Reason: reason, Fact: refText(detail)}
	n.outcome.Decided = false
	n.outcome.Value = nil
	n.outcome.Discovery = &d
	n.stopped = true
	n.finished = true
}

// refSmallRangeNode implements the paper's §5 remark that, "if the value
// range is known a priori and small compared to n, solutions with fewer
// messages are possible by assigning values to missing messages", citing
// Hadzilacos & Halpern's message-optimal protocols.
//
// This is a documented SIMPLIFIED variant for a binary value domain with a
// designated default: when the sender's value is the default, it sends
// nothing and silence means default; otherwise the protocol is exactly the
// chain protocol of Fig. 2. Failure-free runs therefore cost 0 messages
// for the default value and n−1 otherwise. All messages that do flow are
// chain-signed, so the variant inherits the local-authentication
// compatibility the paper establishes (its §5 point).
//
// LIMITATION (deliberate, measured by experiment E9): the full
// Hadzilacos–Halpern construction makes silence itself attributable; this
// simplified variant does not, so a faulty disseminator can deliver the
// non-default chain to only part of the tail and leave the rest deciding
// the default with no correct node discovering a failure. The test
// TestSmallRangeSplitAttack exhibits exactly that run; closing the gap
// needs the citation's machinery.
type refSmallRangeNode struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
	dir    sig.Directory
	role   fd.Role

	// value is the sender's initial value (sender only).
	value    byte
	hasValue bool

	outcome  model.Outcome
	stopped  bool
	finished bool
	gotChain bool
}

// refSmallRangeOption configures a refSmallRangeNode.
type refSmallRangeOption func(*refSmallRangeNode)

// refWithBinaryValue sets the sender's initial bit.
func refWithBinaryValue(v byte) refSmallRangeOption {
	return func(n *refSmallRangeNode) { n.value = v & 1; n.hasValue = true }
}

// refSmallRangeDefault is the bit silence encodes.
const refSmallRangeDefault byte = 0

// newRefSmallRangeNode builds a correct participant for one small-range run.
func newRefSmallRangeNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, opts ...refSmallRangeOption) (*refSmallRangeNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !id.Valid(cfg.N) {
		return nil, fmt.Errorf("fd: node id %v out of range for n=%d", id, cfg.N)
	}
	if signer == nil || dir == nil {
		return nil, errors.New("fd: small-range node needs a signer and a directory")
	}
	n := &refSmallRangeNode{
		id:     id,
		cfg:    cfg,
		signer: signer,
		dir:    dir,
		role:   fd.RoleOf(id, cfg.T),
	}
	n.outcome.Node = id
	for _, opt := range opts {
		opt(n)
	}
	if id == fd.Sender && !n.hasValue {
		return nil, errors.New("fd: sender needs refWithBinaryValue")
	}
	return n, nil
}

// Outcome implements Outcomer.
func (n *refSmallRangeNode) Outcome() model.Outcome { return n.outcome }

// Finished implements sim.Finisher.
func (n *refSmallRangeNode) Finished() bool { return n.finished }

func (n *refSmallRangeNode) expectRound() int {
	if n.role == fd.RoleTail {
		return n.cfg.T + 2
	}
	return int(n.id) + 1
}

func (n *refSmallRangeNode) expectFrom() model.NodeID {
	if n.role == fd.RoleTail {
		return model.NodeID(n.cfg.T)
	}
	return n.id - 1
}

// Step implements the sim Process contract.
func (n *refSmallRangeNode) Step(round int, received []model.Message) []model.Message {
	if n.stopped {
		return nil
	}
	var out []model.Message
	for _, m := range received {
		if n.stopped {
			break
		}
		if round == n.expectRound() && m.From == n.expectFrom() &&
			m.Kind == model.KindChainValue && !n.gotChain && n.id != fd.Sender {
			n.gotChain = true
			out = append(out, n.handleChain(round, m)...)
			continue
		}
		n.discover(round, model.ReasonUnexpectedMessage,
			fmt.Sprintf("%v message from %v in round %d", m.Kind, m.From, round))
	}
	if n.stopped {
		return nil
	}
	switch {
	case round == 1 && n.id == fd.Sender:
		n.decideBit(n.value)
		n.finished = true
		if n.value != refSmallRangeDefault {
			out = append(out, n.startChain()...)
		}
	case round == n.expectRound() && !n.gotChain && n.id != fd.Sender:
		// Silence at the deadline encodes the default value — this is the
		// "assign values to missing messages" device.
		n.decideBit(refSmallRangeDefault)
		if n.role != fd.RoleTail {
			// A relay that decided the default neither forwards nor
			// disseminates; downstream silence encodes the same default.
			n.finished = round >= fd.ChainEngineRounds(n.cfg.T)
		} else {
			n.finished = true
		}
	}
	if round >= fd.ChainEngineRounds(n.cfg.T) {
		n.finished = true
	}
	return out
}

func (n *refSmallRangeNode) startChain() []model.Message {
	chain, err := sig.NewChain([]byte{n.value}, n.signer)
	if err != nil {
		panic(fmt.Sprintf("fd: %v signing value: %v", n.id, err))
	}
	payload := chain.Marshal()
	if n.cfg.T == 0 {
		return model.AppendBroadcast(make([]model.Message, 0, n.cfg.N-1), n.cfg.N, n.id, model.KindChainValue, payload)
	}
	return []model.Message{{To: fd.Sender + 1, Kind: model.KindChainValue, Payload: payload}}
}

func (n *refSmallRangeNode) handleChain(round int, m model.Message) []model.Message {
	chain, err := sig.UnmarshalChain(m.Payload)
	if err != nil {
		n.discover(round, model.ReasonBadFormat, fmt.Sprintf("chain from %v: %v", m.From, err))
		return nil
	}
	wantLen := int(n.id)
	if n.role == fd.RoleTail {
		wantLen = n.cfg.T + 1
	}
	if chain.Len() != wantLen {
		n.discover(round, model.ReasonBadChain,
			fmt.Sprintf("chain from %v has %d signatures, want %d", m.From, chain.Len(), wantLen))
		return nil
	}
	signers, err := chain.Verify(m.From, n.dir)
	if err != nil {
		n.discover(round, model.ReasonBadChain, fmt.Sprintf("chain from %v: %v", m.From, err))
		return nil
	}
	for k, s := range signers {
		if s != model.NodeID(k) {
			n.discover(round, model.ReasonBadChain,
				fmt.Sprintf("layer %d assigned to %v, want %v", k, s, model.NodeID(k)))
			return nil
		}
	}
	v := chain.Value()
	if len(v) != 1 || v[0]&1 != v[0] || v[0] == refSmallRangeDefault {
		// A chain carrying the default (or a non-bit) never occurs in a
		// failure-free run: the default flows as silence.
		n.discover(round, model.ReasonProtocol,
			fmt.Sprintf("chain from %v carries invalid small-range value %v", m.From, v))
		return nil
	}
	n.decideBit(v[0])
	switch n.role {
	case fd.RoleRelay:
		next, err := chain.Extend(m.From, n.signer)
		if err != nil {
			panic(fmt.Sprintf("fd: %v extending chain: %v", n.id, err))
		}
		n.finished = true
		return []model.Message{{To: n.id + 1, Kind: model.KindChainValue, Payload: next.Marshal()}}
	case fd.RoleDisseminator:
		next, err := chain.Extend(m.From, n.signer)
		if err != nil {
			panic(fmt.Sprintf("fd: %v extending chain: %v", n.id, err))
		}
		payload := next.Marshal()
		out := make([]model.Message, 0, n.cfg.N-1-n.cfg.T)
		for j := n.cfg.T + 1; j < n.cfg.N; j++ {
			out = append(out, model.Message{To: model.NodeID(j), Kind: model.KindChainValue, Payload: payload})
		}
		n.finished = true
		return out
	default:
		n.finished = true
		return nil
	}
}

func (n *refSmallRangeNode) decideBit(v byte) {
	n.outcome.Decided = true
	n.outcome.Value = []byte{v}
}

func (n *refSmallRangeNode) discover(round int, reason model.FailureReason, detail string) {
	d := model.Discovery{Node: n.id, Round: round, Reason: reason, Fact: refText(detail)}
	n.outcome.Decided = false
	n.outcome.Value = nil
	n.outcome.Discovery = &d
	n.stopped = true
	n.finished = true
}

// Vector failure discovery: n chain-protocol instances running in the
// SAME rounds, one per sender, each with the role layout rotated so that
// instance s's chain is P_s → P_{s+1} → … → P_{s+t} → rest (indices
// mod n). Every node ends with a VECTOR of outcomes — one proposed value
// (or discovery) per peer — the failure-discovery analogue of
// interactive consistency.
//
// This is exactly the paper's amortization story exercised in parallel:
// local authentication is established once, then n simultaneous
// failure-discovery instances cost n·(n−1) messages and t+1 communication
// rounds in failure-free runs (versus n·(t+1)(n−1) for n baseline runs).
//
// Wire format: each message carries (instance, chain bytes) so the
// instances stay unambiguous while sharing rounds.

// refVectorNode is a correct participant in all n instances at once.
type refVectorNode struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
	dir    sig.Directory

	// value is this node's own proposal (it is the sender of instance id).
	value []byte

	// inst[s] is the per-instance state for sender s.
	inst []refVectorInstance

	finished bool
}

// refVectorInstance tracks one rotated chain instance at this node.
type refVectorInstance struct {
	outcome  model.Outcome
	stopped  bool
	gotChain bool
}

// newRefVectorNode builds a correct participant proposing value.
func newRefVectorNode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (*refVectorNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !id.Valid(cfg.N) {
		return nil, fmt.Errorf("fd: node id %v out of range for n=%d", id, cfg.N)
	}
	if signer == nil || dir == nil {
		return nil, errors.New("fd: vector node needs a signer and a directory")
	}
	if value == nil {
		return nil, errors.New("fd: vector node needs a proposal value")
	}
	n := &refVectorNode{
		id:     id,
		cfg:    cfg,
		signer: signer,
		dir:    dir,
		value:  append([]byte(nil), value...),
		inst:   make([]refVectorInstance, cfg.N),
	}
	for s := range n.inst {
		n.inst[s].outcome.Node = id
	}
	return n, nil
}

// Finished implements sim.Finisher.
func (n *refVectorNode) Finished() bool { return n.finished }

// Outcome returns this node's outcome for the instance whose sender is s.
func (n *refVectorNode) Outcome(s model.NodeID) model.Outcome {
	if !s.Valid(n.cfg.N) {
		return model.Outcome{Node: n.id}
	}
	return n.inst[s].outcome
}

// position returns this node's rotated position in instance s: 0 for the
// sender, 1..t for the chain, >t for the tail.
func (n *refVectorNode) position(s model.NodeID) int {
	return (int(n.id) - int(s) + n.cfg.N) % n.cfg.N
}

// nodeAt returns the node sitting at rotated position p of instance s.
func (n *refVectorNode) nodeAt(s model.NodeID, p int) model.NodeID {
	return model.NodeID((int(s) + p) % n.cfg.N)
}

// expectRound returns the engine round in which instance s's chain
// message reaches this node in failure-free runs.
func (n *refVectorNode) expectRound(s model.NodeID) int {
	p := n.position(s)
	if p > n.cfg.T {
		return n.cfg.T + 2
	}
	return p + 1
}

// refMarshalVectorChain packs (instance, chain) straight from the chain's
// cached state: one allocation, no intermediate Marshal copy.
func refMarshalVectorChain(s model.NodeID, chain sig.Chain) []byte {
	msize := chain.MarshalSize()
	out := make([]byte, 0, sig.IntFieldSize+sig.BytesFieldSize(msize))
	out = sig.AppendInt(out, int(s))
	out = sig.AppendUint32(out, uint32(msize))
	return chain.MarshalTo(out)
}

// refUnmarshalVectorPayload unpacks a vector payload; the returned chain is
// a fresh copy safe to mutate.
func refUnmarshalVectorPayload(data []byte) (model.NodeID, []byte, error) {
	d := sig.NewDecoder(data)
	s := model.NodeID(d.Int())
	chain := append([]byte(nil), d.Bytes()...)
	if err := d.Finish(); err != nil {
		return model.NoNode, nil, err
	}
	return s, chain, nil
}

// Step implements the sim Process contract.
func (n *refVectorNode) Step(round int, received []model.Message) []model.Message {
	var out []model.Message
	for _, m := range received {
		if m.Kind != model.KindChainValue {
			n.discoverAll(round, model.ReasonUnexpectedMessage,
				fmt.Sprintf("%v message from %v", m.Kind, m.From))
			continue
		}
		s, chainBytes, err := refUnmarshalVectorPayload(m.Payload)
		if err != nil || !s.Valid(n.cfg.N) {
			n.discoverAll(round, model.ReasonBadFormat,
				fmt.Sprintf("unparsable vector payload from %v", m.From))
			continue
		}
		out = append(out, n.handleInstance(round, s, m.From, chainBytes)...)
	}
	// Round 1: start our own instance.
	if round == 1 {
		out = append(out, n.startOwnInstance()...)
	}
	// Deadline checks: any instance whose chain is overdue.
	for s := 0; s < n.cfg.N; s++ {
		sid := model.NodeID(s)
		inst := &n.inst[s]
		if inst.stopped || inst.gotChain || sid == n.id {
			continue
		}
		if round == n.expectRound(sid) {
			n.discoverInstance(sid, round, model.ReasonMissingMessage,
				fmt.Sprintf("no chain for instance %v by round %d", sid, round))
		}
	}
	if round >= fd.ChainEngineRounds(n.cfg.T) {
		n.finished = true
	}
	return out
}

// startOwnInstance signs and launches this node's proposal.
func (n *refVectorNode) startOwnInstance() []model.Message {
	chain, err := sig.NewChain(n.value, n.signer)
	if err != nil {
		panic(fmt.Sprintf("fd: %v signing vector value: %v", n.id, err))
	}
	inst := &n.inst[n.id]
	inst.outcome.Decided = true
	inst.outcome.Value = append([]byte(nil), n.value...)
	payload := refMarshalVectorChain(n.id, chain)
	if n.cfg.T == 0 {
		return model.AppendBroadcast(make([]model.Message, 0, n.cfg.N-1), n.cfg.N, n.id, model.KindChainValue, payload)
	}
	return []model.Message{{To: n.nodeAt(n.id, 1), Kind: model.KindChainValue, Payload: payload}}
}

// handleInstance processes instance s's chain message arriving from
// `from`, applying the same checks as the single-instance protocol with
// rotated expected signers.
func (n *refVectorNode) handleInstance(round int, s, from model.NodeID, chainBytes []byte) []model.Message {
	inst := &n.inst[s]
	if inst.stopped {
		return nil
	}
	p := n.position(s)
	if p == 0 {
		// We are the sender of this instance; nobody sends us its chain.
		n.discoverInstance(s, round, model.ReasonUnexpectedMessage,
			fmt.Sprintf("chain for our own instance from %v", from))
		return nil
	}
	wantFrom := n.nodeAt(s, p-1)
	if p > n.cfg.T {
		wantFrom = n.nodeAt(s, n.cfg.T)
	}
	if inst.gotChain || round != n.expectRound(s) || from != wantFrom {
		n.discoverInstance(s, round, model.ReasonUnexpectedMessage,
			fmt.Sprintf("instance %v chain from %v in round %d", s, from, round))
		return nil
	}
	inst.gotChain = true

	chain, err := sig.UnmarshalChain(chainBytes)
	if err != nil {
		n.discoverInstance(s, round, model.ReasonBadFormat, err.Error())
		return nil
	}
	wantLen := p
	if p > n.cfg.T {
		wantLen = n.cfg.T + 1
	}
	if chain.Len() != wantLen {
		n.discoverInstance(s, round, model.ReasonBadChain,
			fmt.Sprintf("instance %v chain has %d signatures, want %d", s, chain.Len(), wantLen))
		return nil
	}
	signers, err := chain.Verify(from, n.dir)
	if err != nil {
		n.discoverInstance(s, round, model.ReasonBadChain, err.Error())
		return nil
	}
	for k, got := range signers {
		if got != n.nodeAt(s, k) {
			n.discoverInstance(s, round, model.ReasonBadChain,
				fmt.Sprintf("instance %v layer %d assigned to %v, want %v", s, k, got, n.nodeAt(s, k)))
			return nil
		}
	}

	inst.outcome.Decided = true
	inst.outcome.Value = append([]byte(nil), chain.Value()...)

	switch {
	case p < n.cfg.T:
		next, err := chain.Extend(from, n.signer)
		if err != nil {
			panic(fmt.Sprintf("fd: %v extending vector chain: %v", n.id, err))
		}
		return []model.Message{{
			To:      n.nodeAt(s, p+1),
			Kind:    model.KindChainValue,
			Payload: refMarshalVectorChain(s, next),
		}}
	case p == n.cfg.T:
		next, err := chain.Extend(from, n.signer)
		if err != nil {
			panic(fmt.Sprintf("fd: %v extending vector chain: %v", n.id, err))
		}
		payload := refMarshalVectorChain(s, next)
		out := make([]model.Message, 0, n.cfg.N-1-n.cfg.T)
		for q := n.cfg.T + 1; q < n.cfg.N; q++ {
			out = append(out, model.Message{
				To:      n.nodeAt(s, q),
				Kind:    model.KindChainValue,
				Payload: payload,
			})
		}
		return out
	default:
		return nil
	}
}

// discoverInstance marks instance s as failed at this node.
func (n *refVectorNode) discoverInstance(s model.NodeID, round int, reason model.FailureReason, detail string) {
	inst := &n.inst[s]
	if inst.stopped {
		return
	}
	d := model.Discovery{Node: n.id, Round: round, Reason: reason, Fact: refText(detail)}
	inst.outcome.Decided = false
	inst.outcome.Value = nil
	inst.outcome.Discovery = &d
	inst.stopped = true
}

// discoverAll marks every still-open instance failed: used for messages
// that cannot be attributed to any instance (no failure-free run of ANY
// instance contains them).
func (n *refVectorNode) discoverAll(round int, reason model.FailureReason, detail string) {
	for s := 0; s < n.cfg.N; s++ {
		if model.NodeID(s) == n.id {
			continue // our own proposal stands regardless
		}
		n.discoverInstance(model.NodeID(s), round, reason, detail)
	}
}

// refText is an oracle's discovery sentence, formatted when the
// discovery was made, as every node formatted it before discoveries kept
// their facts.
type refText string

func (s refText) Detail(model.Discovery) string { return string(s) }
