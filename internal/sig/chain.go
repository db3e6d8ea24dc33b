package sig

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/model"
)

// Chain signatures (paper §4).
//
// A message with a chain signature has been signed by a sequence of nodes,
// each one signing the signed message of its predecessor. The paper
// additionally requires that "a message which has been signed before is
// always signed together with the name of the node it is assigned to", so
// the full structure is
//
//	{P_{K-1}, { … {P_0, {m}_{S_0}}_{S_1} … }}_{S_K}
//
// The innermost signature carries no name: its assignee is learned either
// from the enclosing layer's embedded name or — for the outermost layer —
// from the identity of the immediate sender (network property N2). This is
// exactly what lets Theorem 4 go through: every sub-message is pinned to a
// named node, so two correct nodes either make identical assignments for
// every layer or one of them discovers a failure.
//
// On the wire a chain is encoded flat (value, names, signatures); the
// nested encodings exist only as signature payloads. A chain caches its
// own nested encoding: Extend derives the next one from the cache with a
// single append-style pass instead of re-encoding every layer, and Verify
// recomputes the per-layer payloads in one forward sweep over two pooled
// scratch buffers that it keeps to itself. A chain built by
// NewChain/Extend carries the cache from birth; one parsed by
// UnmarshalChain fills it on its first Extend, in one exactly-sized
// allocation — only relays ever extend, so the many receivers that verify
// and decide never pay for an encoding they would not use.

// Domain-separation tags for chain signature payloads. Distinct tags keep
// a signature obtained in one context (e.g. a key-distribution challenge
// response) from being replayed as another kind of statement.
const (
	tagChainValue = "fd/chain-value/v1"
	tagChainLink  = "fd/chain-link/v1"
)

// Chain verification errors.
var (
	// ErrChainEmpty reports a chain with no signatures.
	ErrChainEmpty = errors.New("sig: empty signature chain")
	// ErrChainEncoding reports a malformed wire encoding.
	ErrChainEncoding = errors.New("sig: malformed chain encoding")
	// ErrChainUnknownSigner reports a layer assigned to a node for which
	// the verifier accepted no test predicate.
	ErrChainUnknownSigner = errors.New("sig: chain layer assigned to node with no accepted predicate")
	// ErrChainBadSignature reports a layer whose signature fails its
	// assigned node's test predicate.
	ErrChainBadSignature = errors.New("sig: chain signature failed test predicate")
)

// Directory resolves the test predicate a verifying node has accepted for
// each peer. Under local authentication each node holds its own directory,
// built by the key-distribution protocol; directories of different correct
// nodes agree on correct nodes' predicates (G2) but may differ on faulty
// nodes' (the G3 gap).
type Directory interface {
	// PredicateOf returns the accepted predicate for node, if any.
	// Implementations should return the same predicate value on every
	// call for a given node: chain verification caches a digest per
	// predicate instance, so a stable value keeps that cache from
	// growing with every call.
	PredicateOf(node model.NodeID) (TestPredicate, bool)
}

// Chain is a parsed chain-signed message. The zero value is not useful;
// build chains with NewChain and Chain.Extend. A Chain is immutable after
// construction except for its lazily-filled nested-encoding cache, so a
// single Chain must not be extended from multiple goroutines concurrently.
type Chain struct {
	// value is the innermost payload m.
	value []byte
	// names[k] is the embedded assignee name for signature layer k,
	// k = 0..len(sigs)-2. The outermost layer has no embedded name; its
	// assignee is the immediate sender.
	names []model.NodeID
	// sigs[k] is the signature of layer k, innermost first.
	sigs [][]byte
	// nested caches the chain's nested encoding — the byte string the
	// next signer would sign together with an assignee name. nil only for
	// chains fresh off the wire; filled by nestedEncoding.
	nested []byte
}

// NewChain creates the innermost chain message {value}_{signer}: the
// originator's statement. The originator's name is NOT part of the wire
// encoding; the first receiver attributes the signature to the immediate
// sender, and any later signer pins that name into the next layer.
func NewChain(value []byte, signer Signer) (*Chain, error) {
	e := GetEncoder()
	e.Grow(BytesFieldSize(len(tagChainValue)) + BytesFieldSize(len(value)))
	e.Raw(appendValuePayload(e.Encoding(), value))
	sig, err := signer.Sign(e.Encoding())
	e.Release()
	if err != nil {
		return nil, fmt.Errorf("sig: sign chain value: %w", err)
	}
	v := make([]byte, len(value))
	copy(v, value)
	nested := make([]byte, 0, BytesFieldSize(len(v))+BytesFieldSize(len(sig)))
	nested = appendNestedRoot(nested, v, sig)
	return &Chain{value: v, sigs: [][]byte{sig}, nested: nested}, nil
}

// Extend returns a new chain with one more signature layer: the caller
// signs the existing chain together with outerAssignee, the name of the
// node the caller assigns the current outermost signature to (in the
// protocols of this repository, the node it received the chain from).
// The receiver chain is not modified. The new chain's nested encoding is
// derived from the receiver's cache in one pass — no per-layer
// re-encoding.
func (c *Chain) Extend(outerAssignee model.NodeID, signer Signer) (*Chain, error) {
	if len(c.sigs) == 0 {
		return nil, ErrChainEmpty
	}
	nested := c.nestedEncoding()
	e := GetEncoder()
	e.Grow(BytesFieldSize(len(tagChainLink)) + IntFieldSize + BytesFieldSize(len(nested)))
	e.Raw(appendLinkPayload(e.Encoding(), outerAssignee, nested))
	sig, err := signer.Sign(e.Encoding())
	e.Release()
	if err != nil {
		return nil, fmt.Errorf("sig: sign chain link: %w", err)
	}
	// The per-layer signature slices are never mutated, so the new chain
	// shares them and only the spines (and the value, which Value exposes)
	// are fresh.
	value := make([]byte, len(c.value))
	copy(value, c.value)
	sigs := make([][]byte, len(c.sigs)+1)
	copy(sigs, c.sigs)
	sigs[len(c.sigs)] = sig
	next := make([]byte, 0, IntFieldSize+BytesFieldSize(len(nested))+BytesFieldSize(len(sig)))
	next = appendNestedLayer(next, outerAssignee, nested, sig)
	return &Chain{
		value:  value,
		names:  model.CloneAppend(c.names, outerAssignee),
		sigs:   sigs,
		nested: next,
	}, nil
}

// clone deep-copies the chain WITHOUT the nested-encoding cache, so
// mutations of the copy's bytes (adversarial tests forge interior
// signatures this way) are faithfully re-encoded on the next use.
func (c *Chain) clone() *Chain {
	out := &Chain{
		value: append([]byte(nil), c.value...),
		names: model.CloneAppend(c.names),
		sigs:  make([][]byte, len(c.sigs)),
	}
	for i, s := range c.sigs {
		out.sigs[i] = append([]byte(nil), s...)
	}
	return out
}

// Value returns the innermost payload m.
func (c *Chain) Value() []byte { return c.value }

// Len returns the number of signature layers.
func (c *Chain) Len() int { return len(c.sigs) }

// Names returns the embedded assignee names, innermost first. Its length
// is Len()-1: the outermost layer's assignee comes from the transport.
func (c *Chain) Names() []model.NodeID {
	return model.CloneAppend(c.names)
}

// Signers returns the full claimed signer sequence given the immediate
// sender: embedded names followed by the sender, innermost first. This is
// the "P_0 said m, P_1 said that P_0 said m, …" reading from the paper.
func (c *Chain) Signers(sender model.NodeID) []model.NodeID {
	return model.CloneAppend(c.names, sender)
}

// The chain wire layouts are defined ONCE each, by the append helpers
// below; every signing, verification, and cache-derivation path goes
// through them. Anything that changes a layout changes it for all
// callers at once — signing and verification cannot drift apart.

// appendValuePayload appends the byte string the originator signs.
func appendValuePayload(dst, value []byte) []byte {
	dst = AppendString(dst, tagChainValue)
	return AppendBytes(dst, value)
}

// appendLinkPayload appends the byte string a chain extender signs: the
// assignee name of the enclosed message plus the enclosed message's
// nested encoding.
func appendLinkPayload(dst []byte, assignee model.NodeID, nested []byte) []byte {
	dst = AppendString(dst, tagChainLink)
	dst = AppendInt(dst, int(assignee))
	return AppendBytes(dst, nested)
}

// appendNestedRoot appends the innermost nested-encoding layer
// (value, sig_0).
func appendNestedRoot(dst, value, sig0 []byte) []byte {
	dst = AppendBytes(dst, value)
	return AppendBytes(dst, sig0)
}

// appendNestedLayer appends one outer nested-encoding layer
// (assignee, enclosed encoding, signature).
func appendNestedLayer(dst []byte, assignee model.NodeID, enc, sg []byte) []byte {
	dst = AppendInt(dst, int(assignee))
	dst = AppendBytes(dst, enc)
	return AppendBytes(dst, sg)
}

// valuePayload is appendValuePayload into a fresh exactly-sized buffer.
func valuePayload(value []byte) []byte {
	dst := make([]byte, 0, BytesFieldSize(len(tagChainValue))+BytesFieldSize(len(value)))
	return appendValuePayload(dst, value)
}

// linkPayload is appendLinkPayload into a fresh exactly-sized buffer.
func linkPayload(assignee model.NodeID, nested []byte) []byte {
	dst := make([]byte, 0, BytesFieldSize(len(tagChainLink))+IntFieldSize+BytesFieldSize(len(nested)))
	return appendLinkPayload(dst, assignee, nested)
}

// nestedEncoding returns the chain's nested encoding — the byte string
// that the NEXT signer would sign (together with an assignee name) —
// computing and caching it for chains that came off the wire. Layer k's
// nested encoding is (name_{k-1}, enc_{k-1}, sig_k) and the innermost is
// (value, sig_0).
func (c *Chain) nestedEncoding() []byte {
	if c.nested == nil {
		c.nested = c.computeNested()
	}
	return c.nested
}

// computeNested rebuilds the nested encoding of a chain parsed from the
// wire, in one exactly-sized allocation written outside-in: every layer's
// size is known up front, so the layers' headers (assignee, length of the
// enclosed encoding) go first, outermost first, then the root, then the
// signatures innermost first — the same bytes appendNestedLayer produces
// bottom-up (slowEncodeNested in the tests is that oracle).
func (c *Chain) computeNested() []byte {
	// layerOverhead is what one outer layer adds around the encoding it
	// encloses, its signature's bytes aside: the assignee and two length
	// prefixes.
	layerOverhead := IntFieldSize + 2*BytesFieldSize(0)
	size := BytesFieldSize(len(c.value)) + BytesFieldSize(len(c.sigs[0]))
	for _, sg := range c.sigs[1:] {
		size += layerOverhead + len(sg)
	}
	enc := make([]byte, 0, size)
	for k := len(c.sigs) - 1; k >= 1; k-- {
		size -= layerOverhead + len(c.sigs[k])
		enc = AppendInt(enc, int(c.names[k-1]))
		enc = AppendUint32(enc, uint32(size))
	}
	enc = appendNestedRoot(enc, c.value, c.sigs[0])
	for _, sg := range c.sigs[1:] {
		enc = AppendBytes(enc, sg)
	}
	return enc
}

// Marshal produces the flat wire encoding of the chain in a single
// exactly-sized allocation.
func (c *Chain) Marshal() []byte {
	return c.MarshalTo(make([]byte, 0, c.MarshalSize()))
}

// MarshalTo appends the flat wire encoding to dst and returns the
// extended slice, for callers embedding a chain in a larger payload
// without an intermediate copy.
func (c *Chain) MarshalTo(dst []byte) []byte {
	dst = AppendBytes(dst, c.value)
	dst = AppendInt(dst, len(c.sigs))
	for _, n := range c.names {
		dst = AppendInt(dst, int(n))
	}
	for _, s := range c.sigs {
		dst = AppendBytes(dst, s)
	}
	return dst
}

// MarshalSize returns the exact size of the flat wire encoding, so
// callers of MarshalTo can presize the destination buffer.
func (c *Chain) MarshalSize() int {
	size := BytesFieldSize(len(c.value)) + IntFieldSize + IntFieldSize*len(c.names)
	for _, s := range c.sigs {
		size += BytesFieldSize(len(s))
	}
	return size
}

// UnmarshalChain parses a flat wire encoding. It validates structure only;
// signature checking is Verify's job. The chain does not alias data: one
// copy of the encoding backs the value and every signature, each sliced
// out of it at full capacity so appending to one cannot reach the next.
func UnmarshalChain(data []byte) (*Chain, error) {
	d := NewDecoder(append([]byte(nil), data...))
	field := func() []byte {
		f := d.Bytes()
		return f[:len(f):len(f)]
	}
	value := field()
	nsigs := d.Int()
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrChainEncoding, d.Err())
	}
	// A chain never exceeds one signature per node plus slack; reject
	// absurd counts before sizing the spines by them.
	if nsigs < 1 || nsigs > 1<<16 {
		return nil, fmt.Errorf("%w: implausible signature count %d", ErrChainEncoding, nsigs)
	}
	c := &Chain{
		value: value,
		names: make([]model.NodeID, 0, nsigs-1),
		sigs:  make([][]byte, 0, nsigs),
	}
	for k := 0; k < nsigs-1; k++ {
		c.names = append(c.names, model.NodeID(d.Int()))
	}
	for k := 0; k < nsigs; k++ {
		c.sigs = append(c.sigs, field())
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChainEncoding, err)
	}
	return c, nil
}

// PeekChainValue returns the value of a flat wire encoding (its first
// field, aliasing data) and whether there is one, reading nothing behind
// it: a receiver whose rule begins "if the value is new" asks this before
// it pays for UnmarshalChain and Verify.
func PeekChainValue(data []byte) ([]byte, bool) {
	d := Decoder{buf: data}
	value := d.Bytes()
	return value, d.err == nil
}

// chainScratch recycles the per-Verify working set: resolved predicates,
// their prefix keys and the preimage buffer; for a Verify that has to
// test something, the current layer's payload and nested encoding too.
type chainScratch struct {
	preds   []TestPredicate
	keys    []memoKey
	kbuf    []byte
	payload []byte
	ne      []byte
}

var chainScratchPool = sync.Pool{New: func() any { return new(chainScratch) }}

// Verify checks every signature layer of the chain against the verifier's
// directory, attributing the outermost layer to sender (per N2) and each
// inner layer to its embedded name. On success it returns the full signer
// sequence, innermost first.
//
// A correct node that accepts a chain via Verify has, in the paper's
// terms, assigned the complete message to the sender and every sub-message
// to its stated node; Theorem 4 then guarantees all correct nodes make the
// same assignments or some correct node discovers a failure.
//
// Verification goes through the verified-prefix memo (memo.go): one small
// hash per layer derives the chain's prefix keys, and a chain the process
// has already verified under the same predicates costs those and one map
// probe. Otherwise the layers above the longest memoized prefix are
// tested in order. The result (including which error, at which layer) is
// identical to checking the layers one by one in order; verifySerial in
// the tests is that reference implementation. The chain itself is left
// untouched.
func (c *Chain) Verify(sender model.NodeID, dir Directory) ([]model.NodeID, error) {
	if len(c.sigs) == 0 {
		return nil, ErrChainEmpty
	}
	if len(c.names) != len(c.sigs)-1 {
		return nil, fmt.Errorf("%w: %d names for %d signatures",
			ErrChainEncoding, len(c.names), len(c.sigs))
	}
	signers := c.Signers(sender)
	// Resolve predicates and derive the prefix keys up front. A serial
	// verifier stops at the first layer with no accepted predicate, so only
	// layers below that bound ("limit") are ever tested.
	s := chainScratchPool.Get().(*chainScratch)
	defer chainScratchPool.Put(s)
	memo := chainVerifyMemo
	s.preds, s.keys = s.preds[:0], s.keys[:0]
	limit := len(c.sigs)
	var key memoKey
	for k := range c.sigs {
		pred, ok := dir.PredicateOf(signers[k])
		if !ok {
			limit = k
			break
		}
		key, s.kbuf = c.prefixKey(s.kbuf, k, &key, memo.digestOf(pred))
		s.preds, s.keys = append(s.preds, pred), append(s.keys, key)
	}
	// Layers 0…verified-1 are memoized as one prefix. The top key is asked
	// first, so a chain seen before costs a single probe.
	verified := limit
	for verified > 0 && !memo.has(s.keys[verified-1]) {
		verified--
	}
	if verified < limit {
		// One forward sweep over two buffers: payload_k is the link tag plus
		// (name_{k-1}, nested_{k-1}), and nested_k is that same body plus
		// sig_k — so each step encodes the body once and copies it.
		const tagLen = 4 + len(tagChainLink)
		s.payload = appendValuePayload(s.payload[:0], c.value)
		s.ne = appendNestedRoot(s.ne[:0], c.value, c.sigs[0])
		for k := 0; k < limit; k++ {
			if k > 0 {
				s.payload = appendLinkPayload(s.payload[:0], c.names[k-1], s.ne)
				s.ne = AppendBytes(append(s.ne[:0], s.payload[tagLen:]...), c.sigs[k])
			}
			if k >= verified && !memo.test(s.keys[k], s.preds[k], s.payload, c.sigs[k]) {
				return nil, fmt.Errorf("%w: layer %d assigned to %v", ErrChainBadSignature, k, signers[k])
			}
		}
	}
	if limit < len(c.sigs) {
		return nil, fmt.Errorf("%w: layer %d assigned to %v", ErrChainUnknownSigner, limit, signers[limit])
	}
	return signers, nil
}

// OuterVerify checks only the outermost signature layer against pred,
// ignoring every sub-message. It exists solely for the E6 ablation, which
// demonstrates that skipping sub-message verification (contrary to Fig. 2)
// lets interior tampering through. Sound code uses Verify.
func (c *Chain) OuterVerify(pred TestPredicate) bool {
	k := len(c.sigs) - 1
	if k < 0 {
		return false
	}
	var payload []byte
	if k == 0 {
		payload = valuePayload(c.value)
	} else {
		// Reconstruct the nested encoding of everything under the
		// outermost layer.
		inner := &Chain{value: c.value, names: c.names[:k-1], sigs: c.sigs[:k]}
		payload = linkPayload(c.names[k-1], inner.nestedEncoding())
	}
	return pred.Test(payload, c.sigs[k])
}

// MapDirectory is a Directory backed by a plain map, convenient for tests
// and for global-authentication setups where all nodes share one view.
type MapDirectory map[model.NodeID]TestPredicate

var _ Directory = MapDirectory(nil)

// PredicateOf implements Directory.
func (m MapDirectory) PredicateOf(node model.NodeID) (TestPredicate, bool) {
	p, ok := m[node]
	return p, ok
}
