package service

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/sig"
	"repro/internal/transport"
)

// The service's load-bearing correctness property: a verdict served
// through the daemon — warm pool, sharded executors, wire round-trip
// and all — is byte-identical to the one a one-shot campaign.Run
// produces for the same (spec, seed) cell. Key material is a pure
// function of (Scheme, N, KeySeed), runs reseed from the instance seed,
// and the JSON codec is deterministic, so any divergence is a real bug
// in the pool/reset path, not noise.

func diffSpec() campaign.Spec {
	return campaign.Spec{
		Name: "service-differential",
		Protocols: []string{
			campaign.ProtoChain, campaign.ProtoFDBA, campaign.ProtoVector,
			campaign.ProtoEIG, campaign.ProtoSmallRange, campaign.ProtoSM,
		},
		Sizes:     []int{4, 7},
		Schemes:   []string{sig.SchemeToy},
		SeedBase:  1,
		SeedCount: 4,
	}
}

// serveAll replays every expanded instance through a served client and
// returns the replies indexed like the expansion, plus the server's
// final snapshot.
func serveAll(t *testing.T, cfg Config, insts []campaign.Instance) ([]*Reply, Snapshot) {
	t.Helper()
	srv := NewServer(cfg)
	acc := transport.NewPipeAcceptor()
	go srv.Serve(acc)
	defer acc.Close()
	cl := dialTenant(t, acc, "differential")

	replies := make([]*Reply, len(insts))
	for i, inst := range insts {
		reply, err := cl.Do(Request{
			Index: inst.Index, Protocol: inst.Protocol, N: inst.N, T: inst.T,
			Scheme: inst.Scheme, Seed: inst.Seed, KeySeed: inst.KeySeed,
		})
		if err != nil {
			t.Fatalf("instance %d (%s n=%d seed=%d): %v", i, inst.Protocol, inst.N, inst.Seed, err)
		}
		replies[i] = reply
	}
	return replies, srv.Drain()
}

func assertIdentical(t *testing.T, fresh []campaign.Result, served []*Reply) {
	t.Helper()
	sawHit := false
	for i, reply := range served {
		if got, want := mustJSON(t, reply.Result), mustJSON(t, fresh[i]); got != want {
			t.Fatalf("result %d (%s) diverges:\nserved %s\nfresh  %s",
				i, fresh[i].Group, got, want)
		}
		if reply.Source == "pool-hit" {
			sawHit = true
		}
	}
	if !sawHit {
		t.Fatalf("no request was served from a warm pool cell — the differential proved nothing")
	}
}

func TestServedVerdictsMatchFreshRuns(t *testing.T) {
	spec := diffSpec()
	insts, err := campaign.Expand(spec)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	rep, err := campaign.Run(spec, 1)
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	if len(rep.Results) != len(insts) {
		t.Fatalf("expansion/report mismatch: %d vs %d", len(insts), len(rep.Results))
	}
	served, snap := serveAll(t, Config{Shards: 3}, insts)
	assertIdentical(t, rep.Results, served)
	if snap.Served != int64(len(insts)) || snap.Errors != 0 {
		t.Fatalf("snapshot = %+v, want %d served with 0 errors", snap, len(insts))
	}
	// Requests go one at a time, so each key set — (toy, 4, 1) and
	// (toy, 7, 1) — is built once, whatever protocol and t ride on it.
	if snap.Pool.Misses != 2 {
		t.Fatalf("pool = %+v, want 2 misses (one per key set)", snap.Pool)
	}
}
