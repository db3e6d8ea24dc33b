package service

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

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
		Sizes:       []int{4, 7},
		Schemes:     []string{sig.SchemeToy},
		Adversaries: []string{campaign.AdvNone, "sender:setup=equivocate-keys", "relay:setup=relay-challenge"},
		SeedBase:    1,
		SeedCount:   4,
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
		reply, err := cl.Do(inst)
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
	// Requests go one at a time, so each setup — (toy, 4, 1) and
	// (toy, 7, 1), honest and under each of two attacks — is built once,
	// whatever protocol and t ride on it.
	if snap.Pool.Misses != 6 {
		t.Fatalf("pool = %+v, want 6 misses (one per setup)", snap.Pool)
	}
}

// Every instance of the golden wiring grid — seven drivers under an
// equivocating coalition and a delay+tamper stack, over churn, seeded
// loss and latency and a healing partition — is served ≡ campaign.Run,
// as single requests and as batches of 8 on a session the server
// dialled out, the way a campaign coordinator leases them.
func TestServedGoldenWiringMatchesFreshRuns(t *testing.T) {
	spec, err := campaign.LoadSpec("../campaign/testdata/golden_wiring_spec.json")
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	insts, err := campaign.Expand(spec)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(insts) != 294 {
		t.Fatalf("golden wiring spec expands to %d instances, want 294", len(insts))
	}
	rep, err := campaign.Run(spec, 2)
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}

	served, snap := serveAll(t, Config{Shards: 3}, insts)
	for i, reply := range served {
		if got, want := mustJSON(t, reply.Result), mustJSON(t, rep.Results[i]); got != want {
			t.Fatalf("request %d (%s) diverges:\nserved %s\nfresh  %s", i, insts[i].GroupKey(), got, want)
		}
	}
	if snap.Served != int64(len(insts)) {
		t.Fatalf("snapshot = %+v, want %d served", snap, len(insts))
	}

	srv := NewServer(Config{Shards: 3})
	coord := dialledSession(t, srv, "batches")
	const size = 8
	for lo := 0; lo < len(insts); lo += size {
		hi := min(lo+size, len(insts))
		results, err := coord.batch(lo+1, insts[lo:hi])
		if err != nil {
			t.Fatalf("batch at %d: %v", lo, err)
		}
		for j, res := range results {
			if got, want := mustJSON(t, res), mustJSON(t, rep.Results[lo+j]); got != want {
				t.Fatalf("batch member %d (%s) diverges:\nserved %s\nfresh  %s", lo+j, insts[lo+j].GroupKey(), got, want)
			}
		}
	}
	if snap := srv.Drain(); snap.Served != int64(len(insts)) || snap.Submitted != int64(len(insts)) {
		t.Fatalf("batch snapshot = submitted %d served %d, want %d each member", snap.Submitted, snap.Served, len(insts))
	}
}

// A batch holding one instance the daemon cannot run is refused whole,
// before any member runs, and the session serves the next batch.
func TestBatchWithOneBadInstanceRejectedWhole(t *testing.T) {
	insts, err := campaign.Expand(diffSpec())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Shards: 1})
	coord := dialledSession(t, srv, "batches")
	bad := insts[1]
	bad.T = bad.N
	_, err = coord.batch(1, []campaign.Instance{insts[0], bad, insts[2]})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Code != RejectBadRequest || rej.RetryAfter != 0 {
		t.Fatalf("batch with a bad member: err = %v, want a bad-request rejection", err)
	}
	if snap := srv.Snapshot(); snap.Submitted != 0 || snap.Served != 0 || snap.Rejected != 1 {
		t.Fatalf("snapshot = submitted %d served %d rejected %d, want 0/0/1", snap.Submitted, snap.Served, snap.Rejected)
	}
	results, err := coord.batch(2, insts[:3])
	if err != nil || len(results) != 3 {
		t.Fatalf("next batch = %d results, %v", len(results), err)
	}
}

// coordSide is the dialling side of a server session: what a campaign
// coordinator speaks.
type coordSide struct {
	t    *testing.T
	conn transport.Conn
}

// dialledSession runs srv.ServeDialled on one end of a pipe and reads
// its hello on the other; the session ends with the test.
func dialledSession(t *testing.T, srv *Server, name string) *coordSide {
	t.Helper()
	coord, conn := transport.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeDialled(context.Background(), conn, name) }()
	t.Cleanup(func() {
		coord.Close()
		if err := <-done; err != nil {
			t.Errorf("session end: %v", err)
		}
		srv.Drain()
	})
	frame, err := coord.Recv()
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	if got, err := transport.DecodeHello(frame, KindHello, WireTag); err != nil || got != name {
		t.Fatalf("hello = %q, %v", got, err)
	}
	return &coordSide{t: t, conn: coord}
}

// batch sends one batch frame and returns its results, or the
// rejection as a *RejectError; heartbeats are skipped.
func (c *coordSide) batch(id int, insts []campaign.Instance) ([]campaign.Result, error) {
	c.t.Helper()
	frame, err := EncodeBatch(id, 3*time.Second, insts)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := c.conn.Send(frame); err != nil {
		c.t.Fatalf("send batch %d: %v", id, err)
	}
	for {
		frame, err := c.conn.Recv()
		if err != nil {
			c.t.Fatalf("batch %d: link lost: %v", id, err)
		}
		switch transport.FrameKind(frame) {
		case KindHeartbeat:
			continue
		case KindReject:
			gotID, rej, err := DecodeReject(frame)
			if err != nil || gotID != id {
				c.t.Fatalf("batch %d: reject for %d, %v", id, gotID, err)
			}
			return nil, rej
		}
		gotID, payload, err := transport.DecodePayload(frame, KindResult, "service result")
		if err != nil || gotID != id {
			c.t.Fatalf("batch %d: result for %d, %v", id, gotID, err)
		}
		var results []campaign.Result
		if err := json.Unmarshal(payload, &results); err != nil {
			c.t.Fatal(err)
		}
		if len(results) != len(insts) {
			c.t.Fatalf("batch %d: %d results for %d instances", id, len(results), len(insts))
		}
		return results, nil
	}
}
