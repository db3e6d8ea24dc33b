package main

import (
	"encoding/binary"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/sig"
)

// The request generator. Every operation a workload issues is a pure
// function of (-seed, session, caller, sequence number): the program
// under test sees only the generated requests and specs, and two runs
// with one seed issue the same operations in the same per-caller order.

// origin is where a session's inputs come from: the run's seed and the
// session's epoch. A run opens several sessions (set-up is repeated, the
// traced run has a reference window and a recorded one), all in one
// process and so over one verify memo; the epoch keeps their values and
// keys apart, or every session after the first would find its signatures
// already verified. The session the end-to-end window runs on has epoch 0.
type origin struct {
	seed  int64
	epoch int
}

// Streams of draws, one per kind of input.
const (
	streamSteady = iota
	streamChurn
	streamLadder
	streamFloor
)

// draws is a SplitMix64 stream keyed by (origin, stream, caller, seq).
type draws struct{ state uint64 }

func (o origin) draws(stream, caller, seq int) *draws {
	d := &draws{state: uint64(o.seed)}
	for _, word := range []int{o.epoch, stream, caller, seq} {
		d.state = d.next() ^ uint64(int64(word))
	}
	return d
}

// epochStride separates the seed ranges of a run's sessions: workloads
// derive key seeds and sweep seed bases as origin.base() plus a small
// offset, and -runs steps the seed by one per run.
const epochStride = 1 << 32

func (o origin) base() int64 { return o.seed + int64(o.epoch)*epochStride }

func (d *draws) next() uint64 {
	d.state += 0x9E3779B97F4A7C15
	z := d.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// freshValue is a sender proposal no earlier request carried, so the
// chain signatures on it miss the process-wide verify memo.
func (d *draws) freshValue() []byte {
	v := make([]byte, 16)
	binary.LittleEndian.PutUint64(v, d.next())
	binary.LittleEndian.PutUint64(v[8:], d.next())
	return v
}

// Serving workloads run every request at this size.
const (
	serveN = 8
	serveT = 2
)

// steadyRequest is serve_steady's request: one pool cell (chain, n=8,
// t=2, one key seed), fresh Value and Seed per request.
func steadyRequest(o origin, caller, seq int, scheme string) service.Request {
	d := o.draws(streamSteady, caller, seq)
	return service.Request{
		Index:    seq,
		Protocol: campaign.ProtoChain,
		N:        serveN,
		T:        serveT,
		Scheme:   scheme,
		Value:    d.freshValue(),
		Seed:     int64(d.next() >> 1),
		KeySeed:  o.base(),
	}
}

var (
	churnProtocols = []string{campaign.ProtoChain, campaign.ProtoFDBA, campaign.ProtoSM,
		campaign.ProtoSmallRange, campaign.ProtoVector, campaign.ProtoNonAuth}
	churnSchemes = []string{sig.SchemeEd25519, sig.SchemeHMAC}
)

const (
	// churnKeySeeds is the recurring key-seed working set per
	// (protocol, scheme); churnFreshEvery is how often a caller sends a
	// key seed no request has carried before.
	churnKeySeeds   = 8
	churnFreshEvery = 32
)

// churnRequest is serve_churn's request: protocol, scheme and key seed
// drawn from the recurring working set, and every churnFreshEvery-th
// request of a caller (never a warm-up request, whose seq is negative)
// carries a never-seen KeySeed, so the pool inserts beside its lookups.
// rename maps a scheme name to the one requested (the traced run swaps
// in the counting wrappers).
func churnRequest(o origin, caller, seq int, rename func(string) string) service.Request {
	d := o.draws(streamChurn, caller, seq)
	req := service.Request{
		Index:    seq,
		Protocol: churnProtocols[d.next()%uint64(len(churnProtocols))],
		N:        serveN,
		T:        serveT,
		Scheme:   rename(churnSchemes[d.next()%uint64(len(churnSchemes))]),
		KeySeed:  o.base() + int64(d.next()%churnKeySeeds),
		Value:    d.freshValue(),
		Seed:     int64(d.next() >> 1),
	}
	if req.Protocol == campaign.ProtoSmallRange {
		// Small-range values are single bits; anything longer is rejected.
		req.Value = []byte{req.Value[0] & 1}
	}
	if seq >= 0 && seq%churnFreshEvery == churnFreshEvery-1 {
		req.KeySeed = o.base() + 1_000_000*int64(caller+1) + int64(seq)
	}
	return req
}

// gridSpec is campaign_grid's sweep k. SeedBase moves by 1000 per sweep:
// key material is pinned to SeedBase, so no sweep rides the verify memo
// of the one before it (a real sweep is one process).
func gridSpec(o origin, k int, quick bool, rename func(string) string) campaign.Spec {
	spec := campaign.Spec{
		Name:      "campaign_grid",
		Protocols: churnProtocols,
		Cases:     []campaign.Case{{N: 8, T: 2}, {N: 16, T: 5}},
		Schemes:   []string{rename(sig.SchemeEd25519), rename(sig.SchemeHMAC)},
		Adversaries: []string{campaign.AdvNone, campaign.AdvCrashRelay, campaign.AdvEquivocate,
			"coalition:size=2,behavior=equivocate,partition=even-odd",
			"coalition:size=1,behavior=delay,delay=2"},
		NetConds:  []string{"ideal", "latency=uniform-0-2,loss=0.05", "churn=2@2-4"},
		SeedBase:  o.base() + 1000*int64(k),
		SeedCount: 4,
	}
	if quick {
		spec.Cases = spec.Cases[:1]
		spec.SeedCount = 1
	}
	return spec
}

// eigCase is one entry of eig_grid's pass.
type eigCase struct {
	n, t      int
	adversary string
}

// eigPass is the instance mix one eig_grid pass runs, in order.
func eigPass(quick bool) []eigCase {
	var pass []eigCase
	add := func(count int, c eigCase) {
		for i := 0; i < count; i++ {
			pass = append(pass, c)
		}
	}
	if quick {
		add(2, eigCase{16, 3, campaign.AdvNone})
		add(2, eigCase{16, 3, campaign.AdvEquivocate})
		return pass
	}
	add(8, eigCase{16, 3, campaign.AdvNone})
	add(8, eigCase{16, 3, campaign.AdvEquivocate})
	add(2, eigCase{64, 2, campaign.AdvNone})
	add(2, eigCase{64, 2, campaign.AdvEquivocate})
	add(1, eigCase{128, 2, campaign.AdvNone})
	return pass
}

// eigInstance is entry slot of eig_grid's pass k; every pass runs under
// its own seeds.
func eigInstance(o origin, k, slot int, pass []eigCase) campaign.Instance {
	c := pass[slot]
	runSeed := o.base() + 1000*int64(k) + int64(slot)
	return campaign.Instance{
		Index:     slot,
		Protocol:  campaign.ProtoEIG,
		N:         c.n,
		T:         c.t,
		Adversary: c.adversary,
		Seed:      runSeed,
		KeySeed:   runSeed,
	}
}
