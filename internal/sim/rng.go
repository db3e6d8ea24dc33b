package sim

import (
	"encoding/binary"
	"io"
	"math/rand"
)

// Deterministic randomness for reproducible experiments.
//
// Protocol code that needs entropy (key generation, challenge nonces)
// takes an io.Reader. Production paths pass crypto/rand.Reader; the
// experiment harness passes per-node seeded readers from this file so
// every run of package experiments is exactly reproducible from its seed.

// SeededReader returns an io.Reader producing a deterministic byte stream
// from the given seed. It is NOT cryptographically secure; it exists so
// simulated runs are reproducible.
func SeededReader(seed int64) io.Reader {
	return &rngReader{rng: rand.New(SeededSource(seed))}
}

// math/rand's seeded generator: an additive lagged-Fibonacci register
// of rngLen words with taps rngLen and rngTap, filled at Seed time from
// a Lehmer stream x·seedA^j mod seedM.
const (
	rngLen = 607
	rngTap = 273
	seedA  = 48271
	seedM  = 1<<31 - 1
	seedA3 = seedA * seedA % seedM * seedA % seedM // one register word's worth of steps
)

// seedPow[i] is seedA^(21+3i) mod seedM: math/rand discards 20 Lehmer
// steps and then spends three on each register word, so word i is built
// from x·seedPow[i] and its two successors. A static array, not heap.
var seedPow = func() (pow [rngLen]uint32) {
	p := uint64(1)
	for j := 0; j < 21; j++ {
		p = p * seedA % seedM
	}
	for i := range pow {
		pow[i] = uint32(p)
		p = p * seedA3 % seedM
	}
	return pow
}()

// seededSource is math/rand's NewSource(seed) without the 4.9 KB
// register and the 1,841-step seeding loop. The generator's first
// rngTap outputs never read a register word it has already overwritten,
// so output k is word(334-k)+word(607-k) of the freshly seeded register
// — a pure function of (seed, k), answered here with six modular
// multiplications. Every stream the system seeds per link, per node
// and per coalition draws a handful of values; the few that run past
// rngTap (RSA key generation, long nonce streams) switch to the real
// generator, fast-forwarded, so the sequence is math/rand's bit for
// bit at any length. It is not safe for concurrent use, like the
// source it replaces.
type seededSource struct {
	x    uint32        // seed normalised into [1, seedM), which seeds the same sequence
	k    uint32        // outputs drawn so far, while tail is nil
	tail rand.Source64 // the real generator, from output rngTap+1 on
}

// SeededSource returns a source whose output is exactly that of
// math/rand's NewSource(seed), built in O(1) and 24 bytes. It is the
// one seeded stream behind SeededReader and the NetLinkSeed, NodeSeed,
// KeyMaterialSeed and CoalitionSeed draws.
func SeededSource(seed int64) rand.Source64 {
	s := new(seededSource)
	s.Seed(seed)
	return s
}

// Seed resets the stream to the start of seed's sequence.
func (s *seededSource) Seed(seed int64) {
	x := seed % seedM
	if x < 0 {
		x += seedM
	}
	if x == 0 {
		x = 89482311
	}
	*s = seededSource{x: uint32(x)}
}

// word returns word i of the freshly seeded register.
func (s *seededSource) word(i int) int64 {
	a := uint64(s.x) * uint64(seedPow[i]) % seedM
	b := a * seedA % seedM
	c := b * seedA % seedM
	return int64(a<<40^b<<20^c) ^ rngCooked[i]
}

func (s *seededSource) Uint64() uint64 {
	if s.tail != nil {
		return s.tail.Uint64()
	}
	if s.k == rngTap {
		s.tail = rand.NewSource(int64(s.x)).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			s.tail.Uint64()
		}
		return s.tail.Uint64()
	}
	s.k++
	k := int(s.k)
	return uint64(s.word(rngLen-rngTap-k) + s.word(rngLen-k))
}

func (s *seededSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// keyDomain separates the key-material seed domain from the run-entropy
// domain.
const keyDomain uint64 = 0x6B65792D646F6D61 // "key-doma"

// KeyMaterialSeed derives the per-node key-generation seed. It is a
// stream domain distinct from NodeSeed's run-entropy domain: key material
// derived from a key seed is identical no matter which run seed the rest
// of the instance uses, which is what lets clusters cache and reuse keys
// across reseeded runs (core.Cluster.Reset, the campaign setup cache)
// while remaining byte-equivalent to a fresh instance.
//
// The domain tag is folded in AFTER a full mixing round, not XORed onto
// the input: NodeSeed(keySeed^tag, node) would make the run seed
// keySeed^tag reproduce every node's key stream wholesale, whereas no
// single run seed can reproduce mix(NodeSeed(k, node)^tag) across nodes
// (the tag lands on a value that already depends on node nonlinearly).
func KeyMaterialSeed(keySeed int64, node int) int64 {
	return mix64(uint64(NodeSeed(keySeed, node)) ^ keyDomain)
}

// coalitionDomain separates the corrupt-set selection domain from the
// run-entropy and key-material domains.
const coalitionDomain uint64 = 0x636F616C6974696F // "coalitio"

// CoalitionSeed derives the corrupt-set selection seed for a run seed: a
// stream domain distinct from both run entropy (NodeSeed) and key
// material (KeyMaterialSeed), so which nodes an adversary coalition
// corrupts can never correlate with handshake nonces or keys drawn from
// the same instance seed. Like KeyMaterialSeed, the domain tag is folded
// in after a full mixing round.
func CoalitionSeed(runSeed int64) int64 {
	return mix64(uint64(mix64(uint64(runSeed))) ^ coalitionDomain)
}

// linkDomain separates the per-link network-condition domain from the
// run-entropy, key-material, and coalition domains.
const linkDomain uint64 = 0x6C696E6B2D646F6D // "link-dom"

// NetLinkSeed derives the seed for the directed link from→to under a run
// seed: a stream domain distinct from run entropy, key material, and
// coalition selection, so network fates (loss, latency draws) can never
// correlate with protocol nonces or corrupt-set choices drawn from the
// same instance seed. Links are directed — from→to and to→from get
// independent streams — and only the sender ever draws from a link's
// stream, which is what keeps fates identical between the lockstep
// engine and the concurrent transport runners. Like KeyMaterialSeed,
// the domain tag is folded in after a full mixing round.
func NetLinkSeed(runSeed int64, from, to int) int64 {
	return mix64(uint64(NodeSeed(NodeSeed(runSeed, from), to)) ^ linkDomain)
}

// NodeSeed derives a distinct per-node seed from a run seed, so nodes get
// independent deterministic streams.
func NodeSeed(runSeed int64, node int) int64 {
	// SplitMix64-style mixing keeps nearby inputs uncorrelated.
	return mix64(uint64(runSeed) + uint64(node)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15)
}

// mix64 is the SplitMix64 finalizer shared by the seed-derivation
// functions.
func mix64(z uint64) int64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

type rngReader struct {
	rng *rand.Rand
}

// Read fills p with pseudo-random bytes; it never fails.
func (r *rngReader) Read(p []byte) (int, error) {
	var buf [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(buf[:], r.rng.Uint64())
		copy(p[i:], buf[:])
	}
	return len(p), nil
}
