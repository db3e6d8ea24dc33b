package adversary

import (
	"fmt"
	"io"

	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Adversaries against the key-distribution protocol (paper Fig. 1). They
// probe exactly the properties Theorem 2 claims:
//
//	G1: a faulty node must not get a correct node's key accepted for
//	    itself (ForeignClaim, ChallengeRelayNode try);
//	G2: a correct node's key must be accepted by all correct nodes
//	    (nothing an adversary does below can prevent it, tested in E5);
//	G3 (absent): KeyFaces shows peers different keys, or one shared key.
//
// ForeignClaim and KeyFaces filter the node's correct Fig. 1 process;
// ChallengeRelayNode forwards what it receives, which no filter can do.

// ForeignClaim wraps a correct node to broadcast a VICTIM's predicate as
// its own and then say nothing: it holds no matching secret key (S3), so
// no correct node ever accepts the claim — G1 in action. Pass it to
// core.WithWrappedProcess.
func ForeignClaim(victim sig.TestPredicate) func(sim.Process) sim.Process {
	claim := victim.Bytes()
	return func(p sim.Process) sim.Process {
		return Wrap(p,
			TamperPayload(model.KindTestPredicate, func([]byte) []byte { return claim }),
			DropAll(keydist.RoundChallenge))
	}
}

// ChallengeRelayNode claims a victim's predicate and then tries to launder
// the challenges through the victim itself: when challenger C sends it
// {C, A, r}, it forwards the challenge to the victim V hoping V signs
// something usable. A correct victim signs only challenges of the form
// {sender, V, r} naming itself and the true immediate sender, so the
// harvested signature (if any) never matches what C expects — the reason
// the challenge carries BOTH names (paper §3.1).
type ChallengeRelayNode struct {
	id     model.NodeID
	cfg    model.Config
	victim model.NodeID
	pred   sig.TestPredicate
}

// NewChallengeRelayNode builds the relaying claimant.
func NewChallengeRelayNode(cfg model.Config, id, victim model.NodeID, victimPred sig.TestPredicate) *ChallengeRelayNode {
	return &ChallengeRelayNode{id: id, cfg: cfg, victim: victim, pred: victimPred}
}

// Step implements sim.Process.
func (a *ChallengeRelayNode) Step(round int, received []model.Message) []model.Message {
	var out []model.Message
	switch round {
	case keydist.RoundBroadcast:
		for _, to := range a.cfg.Nodes() {
			if to != a.id {
				out = append(out, model.Message{To: to, Kind: model.KindTestPredicate, Payload: a.pred.Bytes()})
			}
		}
	case keydist.RoundChallenge:
		// Preemptively probe the victim with misdirected challenges,
		// hoping to harvest a signature usable toward some challenger C:
		// one challenge names C as challenger (the victim must refuse: C
		// is not the immediate sender), one names ourselves (the victim
		// signs, but the signature binds OUR name and OUR nonce, so it can
		// never satisfy C's verification).
		for _, c := range a.cfg.Nodes() {
			if c == a.id || c == a.victim {
				continue
			}
			forged := keydist.Challenge{Challenger: c, Challenged: a.victim, Nonce: make([]byte, keydist.NonceSize)}
			out = append(out, model.Message{To: a.victim, Kind: model.KindChallenge, Payload: forged.Marshal()})
		}
		own := keydist.Challenge{Challenger: a.id, Challenged: a.victim, Nonce: make([]byte, keydist.NonceSize)}
		out = append(out, model.Message{To: a.victim, Kind: model.KindChallenge, Payload: own.Marshal()})
	case keydist.RoundResponse:
		// Real challenges addressed to us arrive now; forward them to the
		// victim verbatim (they will arrive a round late AND misnamed —
		// doubly refused). What the victim signs for our own probe
		// arrives after the response round: too late to replay.
		for _, m := range received {
			if m.Kind != model.KindChallenge {
				continue
			}
			if _, err := keydist.ParseChallenge(m.Payload); err == nil {
				out = append(out, model.Message{To: a.victim, Kind: model.KindChallenge, Payload: m.Payload})
			}
		}
	}
	return out
}

// Finished implements sim.Finisher.
func (a *ChallengeRelayNode) Finished() bool { return true }

// KeyFaces holds the key pairs a faulty node shows in key distribution,
// chosen by recipient: faceOne sees key one, everyone else key two. Its
// wrapped correct node sends each peer that peer's predicate, answers its
// challenges with the matching key, and challenges nobody. Two keys are
// the paper's G3 violation, undetectable here and discovered by the chain
// protocol once used (Theorem 4); one key around every member of a
// coalition is key sharing, which leaves G1/G2 intact.
type KeyFaces struct {
	faceOne  model.NodeSet
	one, two sig.Signer
}

// NewKeyFaces draws key one, then key two, from rand: the
// mixed-predicate attacker showing key one to faceOne.
func NewKeyFaces(scheme sig.Scheme, rand io.Reader, faceOne model.NodeSet) (*KeyFaces, error) {
	one, err := scheme.Generate(rand)
	if err != nil {
		return nil, fmt.Errorf("adversary: generate key one: %w", err)
	}
	two, err := scheme.Generate(rand)
	if err != nil {
		return nil, fmt.Errorf("adversary: generate key two: %w", err)
	}
	return &KeyFaces{faceOne: faceOne, one: one, two: two}, nil
}

// NewSharedKey draws one key from rand, shown to every recipient.
func NewSharedKey(scheme sig.Scheme, rand io.Reader) (*KeyFaces, error) {
	key, err := scheme.Generate(rand)
	if err != nil {
		return nil, fmt.Errorf("adversary: generate shared key: %w", err)
	}
	return &KeyFaces{one: key, two: key}, nil
}

// SignerFor returns the signer whose predicate the given node accepted,
// for signing messages that verify for a chosen group.
func (k *KeyFaces) SignerFor(node model.NodeID) sig.Signer {
	if k.faceOne.Contains(node) {
		return k.one
	}
	return k.two
}

// Wrap runs a correct key-distribution node under the faces' filter: the
// shape core.WithWrappedProcess takes.
func (k *KeyFaces) Wrap(p sim.Process) sim.Process { return Wrap(p, k.filter) }

// filter shows each recipient its face: the predicate and a response
// re-signed with its key. Challenges are dropped.
func (k *KeyFaces) filter(_ int, out []model.Message) []model.Message {
	kept := out[:0]
	for _, m := range out {
		switch m.Kind {
		case model.KindChallenge:
			continue
		case model.KindTestPredicate:
			m.Payload = k.SignerFor(m.To).Predicate().Bytes()
		case model.KindChallengeResponse:
			resp, err := keydist.ParseResponse(m.Payload)
			if err != nil {
				continue
			}
			if resp, err = keydist.Respond(resp.Challenge, k.SignerFor(m.To)); err != nil {
				continue
			}
			m.Payload = resp.Marshal()
		}
		kept = append(kept, m)
	}
	return kept
}
