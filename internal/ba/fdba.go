package ba

import (
	"bytes"
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sig"
)

// FDBA — the Failure-Discovery-to-Byzantine-Agreement extension.
//
// The paper (§4) highlights Hadzilacos & Halpern's result that a Failure
// Discovery protocol "can be extended under certain conditions to a
// protocol for Byzantine Agreement" whose failure-free runs cost the same
// number of messages as the underlying FD protocol. This file realizes
// the construction concretely:
//
//	phase 1 (rounds 1 … t+2):   the chain FD protocol of paper Fig. 2 —
//	                            n−1 messages when nothing goes wrong;
//	round t+3 (FAULT):          every node that discovered a failure
//	                            broadcasts a signed FAULT announcement;
//	round t+4 (ECHO):           every node that received a valid FAULT
//	                            rebroadcasts it, so "some correct node saw
//	                            a fault signal" becomes "every correct node
//	                            saw one" — within these two rounds;
//	rounds t+5 … 2t+5 (FLOOD):  fallback participants flood their FD
//	                            evidence chains SM(t)-style: each hop adds
//	                            a signature, a message with h hop
//	                            signatures is accepted only in hop-round h,
//	                            and new evidence is re-relayed. The classic
//	                            SM argument gives all correct fallback
//	                            participants the same evidence set;
//	round 2t+6 (decide):        fallback nodes decide by *strongest
//	                            evidence* — the valid chain with the
//	                            longest consecutive signer prefix
//	                            P_0 … P_{k-1}; a tie between different
//	                            values decides the default. Nodes never
//	                            drawn into the fallback keep their FD
//	                            decision.
//
// Why strongest-evidence aligns mixed decisions: signatures by correct
// nodes only ever exist on prefixes of the single value v the clean part
// of the run carried, so any conflicting evidence is signed exclusively by
// a consecutive run of faulty nodes starting at P_0 — strictly shorter
// than the evidence any correct fallback participant already holds.
// Soundness of the whole construction assumes global authentication (or
// the G1/G2 properties for all relevant signers); under mere local
// authentication the G3 gap lets colluders split the evidence-set
// agreement, which is exactly the open problem the paper's §6 states.
// Experiment E11 demonstrates both sides.
type FDBANode struct {
	id     model.NodeID
	cfg    model.Config
	signer sig.Signer
	dir    sig.Directory

	// fdNode runs phase 1.
	fdNode *fd.ChainNode

	// inFallback marks that the node joined the fallback flood.
	inFallback bool
	// seenEvidence dedupes flooded evidence by marshaled bytes.
	seenEvidence map[string]bool
	// best tracks the strongest evidence: longest consecutive-prefix chain.
	bestStrength int
	bestValue    []byte
	// conflict marks two strongest chains with different values.
	conflict bool

	decision Decision
	finished bool
}

// FDBAEngineRounds returns the lockstep rounds a full FDBA run needs.
func FDBAEngineRounds(t int) int { return 2*t + 6 }

// faultTag domain-separates FAULT announcements from all other statements.
const faultTag = "fdba/fault/v1"

// NewFDBANode builds a correct FDBA participant. value is required for the
// sender (P_0) only.
func NewFDBANode(cfg model.Config, id model.NodeID, signer sig.Signer, dir sig.Directory, value []byte) (*FDBANode, error) {
	var opts []fd.ChainOption
	if id == Sender {
		opts = append(opts, fd.WithValue(value))
	}
	fdNode, err := fd.NewChainNode(cfg, id, signer, dir, opts...)
	if err != nil {
		return nil, err
	}
	n := &FDBANode{
		id:           id,
		cfg:          cfg,
		signer:       signer,
		dir:          dir,
		fdNode:       fdNode,
		seenEvidence: make(map[string]bool),
	}
	n.decision.Node = id
	return n, nil
}

// Decision implements Decider.
func (n *FDBANode) Decision() Decision { return n.decision }

// Outcome implements fd.Outcomer, letting FDBA runs flow through
// core.Cluster and the protocol driver registry. The decision maps onto
// Decided/Value; a phase-1 failure discovery rides along so ledger and
// campaign reports can count how often the fallback was triggered. Note
// that unlike a pure FD outcome, a discovery here coexists with a
// decision — the fallback's whole job is to decide anyway.
func (n *FDBANode) Outcome() model.Outcome {
	out := model.Outcome{Node: n.id, Decided: n.finished, Value: n.decision.Value}
	if fdOut := n.fdNode.Outcome(); fdOut.Discovery != nil {
		out.Discovery = fdOut.Discovery
	}
	return out
}

// Finished implements sim.Finisher.
func (n *FDBANode) Finished() bool { return n.finished }

// InFallback reports whether the node was drawn into the fallback phase,
// for experiment assertions about failure-free cost.
func (n *FDBANode) InFallback() bool { return n.inFallback }

// Step implements the sim Process contract.
func (n *FDBANode) Step(round int, received []model.Message) []model.Message {
	t := n.cfg.T
	fdRounds := fd.ChainEngineRounds(t) // t+2
	faultRound := fdRounds + 1          // t+3
	echoRound := fdRounds + 2           // t+4
	decideRound := FDBAEngineRounds(t)  // 2t+6

	switch {
	case round <= fdRounds:
		return n.fdNode.Step(round, received)

	case round == faultRound:
		// Announce a phase-1 discovery, if any.
		if out := n.fdNode.Outcome(); out.Discovery != nil {
			n.inFallback = true
			return n.broadcastFault(nil, model.NoNode)
		}
		return nil

	case round == echoRound:
		// Echo any valid FAULT heard in the fault round; either way the
		// hearer itself joins the fallback.
		if f, announcer := n.firstValidFault(received, 1); f != nil {
			n.inFallback = true
			return n.broadcastFault(f, announcer)
		}
		return nil

	case round == echoRound+1:
		// Join on echoed faults, then open the flood with our evidence.
		if f, _ := n.firstValidFault(received, 2); !n.inFallback && f != nil {
			n.inFallback = true
		}
		if !n.inFallback {
			return nil
		}
		return n.presentEvidence()

	case round > echoRound+1 && round < decideRound:
		if !n.inFallback {
			return nil
		}
		hop := round - (echoRound + 1) // evidence with h hop sigs arrives at hop-round h
		return n.ingestFlood(hop, received)

	case round == decideRound:
		n.ingestFlood(round-(echoRound+1), received)
		n.decide()
		n.finished = true
	}
	return nil
}

// broadcastFault sends a FAULT announcement. When echoing, inner is the
// fault chain being echoed and announcer the node its signature was
// assigned to; we extend it with our own signature so echoes are
// attributable. An original announcement is a fresh one-layer chain over
// the FAULT tag.
func (n *FDBANode) broadcastFault(inner *sig.Chain, announcer model.NodeID) []model.Message {
	var (
		chain *sig.Chain
		err   error
		kind  model.MessageKind
	)
	if inner == nil {
		chain, err = sig.NewChain([]byte(faultTag), n.signer)
		kind = model.KindFault
	} else {
		// The echoed chain's outer layer is assigned to its original
		// announcer, whose identity the echoer pins by name.
		chain, err = inner.Extend(announcer, n.signer)
		kind = model.KindFaultEcho
	}
	if err != nil {
		panic(fmt.Sprintf("ba: %v signing fault: %v", n.id, err))
	}
	payload := chain.Marshal()
	out := make([]model.Message, 0, n.cfg.N-1)
	for _, to := range n.cfg.Nodes() {
		if to != n.id {
			out = append(out, model.Message{To: to, Kind: kind, Payload: payload})
		}
	}
	return out
}

// firstValidFault scans received for a fault message with the expected
// number of layers whose signatures verify under our directory, with the
// outer layer assigned to the immediate sender. It returns the parsed
// chain and the announcer (the innermost signer), or nil.
func (n *FDBANode) firstValidFault(received []model.Message, layers int) (*sig.Chain, model.NodeID) {
	wantKind := model.KindFault
	if layers == 2 {
		wantKind = model.KindFaultEcho
	}
	for _, m := range received {
		if m.Kind != wantKind {
			continue
		}
		chain, err := sig.UnmarshalChain(m.Payload)
		if err != nil || chain.Len() != layers {
			continue
		}
		if !bytes.Equal(chain.Value(), []byte(faultTag)) {
			continue
		}
		signers, err := chain.Verify(m.From, n.dir)
		if err != nil {
			continue
		}
		return chain, signers[0]
	}
	return nil, model.NoNode
}

// presentEvidence opens the flood: broadcast our FD evidence wrapped in a
// one-hop flood chain. Nodes with no evidence (they discovered before
// accepting) stay silent — absence of evidence is itself information the
// strongest-evidence rule handles.
func (n *FDBANode) presentEvidence() []model.Message {
	ev := n.fdNode.EvidenceChain()
	if ev == nil {
		return nil
	}
	evBytes := ev.Marshal()
	n.noteEvidence(evBytes)
	hop, err := sig.NewChain(evBytes, n.signer)
	if err != nil {
		panic(fmt.Sprintf("ba: %v signing evidence: %v", n.id, err))
	}
	return n.floodTo(make([]model.Message, 0, n.cfg.N-1), hop, nil)
}

// ingestFlood processes flood messages for hop-round hop and returns any
// re-relays.
func (n *FDBANode) ingestFlood(hop int, received []model.Message) []model.Message {
	var out []model.Message
	for _, m := range received {
		if m.Kind != model.KindFallback {
			continue
		}
		// Seen evidence is discarded whatever wraps it: ask before parsing.
		if ev, ok := sig.PeekChainValue(m.Payload); !ok || n.seenEvidence[string(ev)] {
			continue
		}
		hopChain, err := sig.UnmarshalChain(m.Payload)
		if err != nil || hopChain.Len() != hop {
			continue
		}
		hopSigners, err := hopChain.Verify(m.From, n.dir)
		if err != nil {
			continue
		}
		if !distinctValid(hopSigners, n.cfg.N) || containsID(hopSigners, n.id) {
			continue
		}
		if !n.noteEvidence(hopChain.Value()) {
			continue // invalid evidence: ignore, do not relay
		}
		if hop <= n.cfg.T {
			ext, err := hopChain.Extend(m.From, n.signer)
			if err != nil {
				panic(fmt.Sprintf("ba: %v extending flood: %v", n.id, err))
			}
			out = n.floodTo(out, ext, hopSigners)
		}
	}
	return out
}

// noteEvidence validates an evidence chain under our directory and folds
// it into the strongest-evidence state. It reports whether the evidence
// was valid.
func (n *FDBANode) noteEvidence(evBytes []byte) bool {
	n.seenEvidence[string(evBytes)] = true
	ev, err := sig.UnmarshalChain(evBytes)
	if err != nil {
		return false
	}
	k := ev.Len()
	if k < 1 || k > n.cfg.T+1 {
		return false
	}
	// Valid FD evidence is signed by the consecutive prefix P_0 … P_{k-1};
	// the outer layer is therefore P_{k-1}'s.
	signers, err := ev.Verify(model.NodeID(k-1), n.dir)
	if err != nil {
		return false
	}
	for i, s := range signers {
		if s != model.NodeID(i) {
			return false
		}
	}
	switch {
	case k > n.bestStrength:
		n.bestStrength = k
		n.bestValue = append([]byte(nil), ev.Value()...)
		n.conflict = false
	case k == n.bestStrength && !bytes.Equal(ev.Value(), n.bestValue):
		n.conflict = true
	}
	return true
}

// floodTo appends a flood chain, addressed to every node but us and
// exclude, to out.
func (n *FDBANode) floodTo(out []model.Message, hop *sig.Chain, exclude []model.NodeID) []model.Message {
	payload := hop.Marshal()
	for _, to := range n.cfg.Nodes() {
		if to != n.id && !containsID(exclude, to) {
			out = append(out, model.Message{To: to, Kind: model.KindFallback, Payload: payload})
		}
	}
	return out
}

// decide fixes the node's final value: fallback nodes use the
// strongest-evidence rule, others keep their FD decision.
func (n *FDBANode) decide() {
	if !n.inFallback {
		if out := n.fdNode.Outcome(); out.Decided {
			n.decision.Value = append([]byte(nil), out.Value...)
			return
		}
		// Unreachable for a correct node: a discovery joins the fallback.
		n.decision.Value = DefaultValue
		return
	}
	if n.bestStrength == 0 || n.conflict {
		n.decision.Value = DefaultValue
		return
	}
	n.decision.Value = n.bestValue
}

// distinctValid reports whether ids are pairwise distinct and in range.
func distinctValid(ids []model.NodeID, n int) bool {
	for i, id := range ids {
		if !id.Valid(n) || containsID(ids[:i], id) {
			return false
		}
	}
	return true
}

func containsID(ids []model.NodeID, id model.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
