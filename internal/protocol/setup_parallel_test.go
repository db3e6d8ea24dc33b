package protocol

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sig"
)

// handshakeReport runs inst's key distribution, its setup attack included,
// and renders everything it leaves behind: rounds and traffic, the correct
// nodes' discoveries, every node's directory by fingerprint, and G1 and
// G2 against the corrupt set. ECDSA signs with crypto/rand, so its
// signatures — 70 to 72 bytes of DER — vary in length from run to run at
// any GOMAXPROCS: its byte count is left out.
func handshakeReport(t *testing.T, inst Instance) string {
	t.Helper()
	c, err := newCluster(inst)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := SetupOptions(inst)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.EstablishAuthentication(opts...)
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Snapshot
	if inst.Scheme == sig.SchemeECDSA {
		snap.Bytes = 0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "engine rounds=%d last=%d %v\n", rep.Rounds, snap.LastRound, snap)
	for _, d := range rep.Discoveries {
		fmt.Fprintln(&b, d)
	}
	for i, node := range c.Nodes() {
		fmt.Fprintf(&b, "P%d:", i)
		if node == nil {
			fmt.Fprintln(&b, " replaced")
			continue
		}
		for j := range inst.N {
			if pred, ok := node.Directory().PredicateOf(model.NodeID(j)); ok {
				fmt.Fprintf(&b, " %s", pred.Fingerprint())
			} else {
				fmt.Fprint(&b, " -")
			}
		}
		fmt.Fprintln(&b)
	}
	corrupt := inst.Strategy.CorruptSet(inst.N, inst.Seed)
	fmt.Fprintf(&b, "G1: %v\nG2: %v\n", core.CheckG1(c.Nodes(), corrupt), core.CheckG2(c.Nodes(), corrupt))
	return b.String()
}

// TestHandshakeReportsEqualAtAnyGOMAXPROCS: key distribution's response
// and acceptance rounds declare their signatures and verifications, and
// under ed25519 and ecdsa-p256 they cross sim.ParallelWork from n=6 on
// (campaign's TestSignedRoundsStayUnderParallelThreshold pins n=16), so
// at GOMAXPROCS 2 the nodes of those rounds step on two goroutines. The
// handshake must come out byte for byte as at GOMAXPROCS 1: honest at n=8
// and n=16 under ed25519, ecdsa-p256 and hmac-sha256 (which stays
// serial), and under each setup attack at both sizes. shared-key is the
// one to watch: two coalition members' filters re-sign their responses
// with one key inside one parallel round. Under -race this is the
// handshake's concurrency check.
func TestHandshakeReportsEqualAtAnyGOMAXPROCS(t *testing.T) {
	var insts []Instance
	for _, n := range []int{8, 16} {
		for _, scheme := range []string{sig.SchemeEd25519, sig.SchemeECDSA, sig.SchemeHMAC} {
			insts = append(insts, Instance{N: n, T: (n - 1) / 3, Scheme: scheme, Seed: int64(n), KeySeed: 51})
		}
		for _, attack := range setupNames() {
			insts = append(insts, Instance{N: n, T: (n - 1) / 3, Scheme: sig.SchemeEd25519, Seed: int64(n), KeySeed: 52,
				Strategy: adversary.Strategy{Nodes: []int{1, 2}, Setup: attack}})
		}
	}
	for _, inst := range insts {
		name := fmt.Sprintf("n=%d %s setup=%q", inst.N, inst.Scheme, inst.Strategy.Setup)
		var reports [2]string
		for i, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			reports[i] = handshakeReport(t, inst)
			runtime.GOMAXPROCS(prev)
		}
		if reports[0] != reports[1] {
			t.Errorf("%s: the handshake differs between GOMAXPROCS 1 and 2\n 1:\n%s 2:\n%s", name, reports[0], reports[1])
		}
	}
}

// setupNames lists every setup attack a strategy accepts.
func setupNames() []string {
	return []string{adversary.SetupSilent, adversary.SetupForeignClaim, adversary.SetupRelayChallenge,
		adversary.SetupEquivocateKeys, adversary.SetupSharedKey}
}
