package adversary

import (
	"repro/internal/keydist"
	"repro/internal/model"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Adversaries against the key-distribution protocol (paper Fig. 1). They
// probe exactly the properties Theorem 2 claims:
//
//	G1: a faulty node must not get a correct node's key accepted for
//	    itself (ForeignClaim, ChallengeRelay try);
//	G2: a correct node's key must be accepted by all correct nodes
//	    (nothing an adversary does below can prevent it, tested in E5);
//	G3 (absent): KeyFaces shows peers different keys, or one shared key.
//
// Each filters the node's correct Fig. 1 process.

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

// ChallengeRelay claims a victim's predicate (ForeignClaim) and tries to
// launder challenges through the victim: in round 2 it probes the victim
// with challenges naming each challenger C (refused: C is not the
// immediate sender) and itself (signed, but binding its own name and
// nonce, and too late to replay); in round 3 it forwards each challenge
// it receives to the victim, a round late and misnamed. Nothing harvested
// matches what C expects — why a challenge names BOTH parties (§3.1).
func ChallengeRelay(cfg model.Config, id, victim model.NodeID, victimPred sig.TestPredicate) func(sim.Process) sim.Process {
	probe := func(challenger model.NodeID) model.Message {
		ch := keydist.Challenge{Challenger: challenger, Challenged: victim, Nonce: make([]byte, keydist.NonceSize)}
		return model.Message{To: victim, Kind: model.KindChallenge, Payload: ch.Marshal()}
	}
	var probes []model.Message
	for _, c := range cfg.Nodes() {
		if c != id && c != victim {
			probes = append(probes, probe(c))
		}
	}
	probes = append(probes, probe(id))
	forward := func(round int, in, out []model.Message) []model.Message {
		if round != keydist.RoundResponse {
			return out
		}
		for _, m := range in {
			if _, err := keydist.ParseChallenge(m.Payload); m.Kind == model.KindChallenge && err == nil {
				out = append(out, model.Message{To: victim, Kind: model.KindChallenge, Payload: m.Payload})
			}
		}
		return out
	}
	claim := ForeignClaim(victimPred)
	return func(p sim.Process) sim.Process {
		return Wrap(claim(p), InjectAt(keydist.RoundChallenge, probes...), forward)
	}
}

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

// NewKeyFaces is the attacker showing key one to faceOne and key two to
// everyone else; one key as both is key sharing.
func NewKeyFaces(faceOne model.NodeSet, one, two sig.Signer) *KeyFaces {
	return &KeyFaces{faceOne: faceOne, one: one, two: two}
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
func (k *KeyFaces) filter(_ int, _, out []model.Message) []model.Message {
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
