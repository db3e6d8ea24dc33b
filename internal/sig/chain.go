package sig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
// Representation. A Chain IS its flat wire encoding, one byte string
//
//	len‖value ‖ K ‖ name_0 … name_{K-2} ‖ len‖sig_0 … len‖sig_{K-1}
//
// (integers as the package's 8-byte fields, lengths as 4-byte prefixes),
// and nothing else: the value, the names and the signatures are read from
// it by offset, and no per-layer slice exists. A chain validated once —
// built by NewChain or Extend, or checked by UnmarshalChain — is never
// re-checked: every accessor trusts the layout.
//
// Ownership. A Chain is a value: one slice header over an encoding that
// nothing writes after construction, so copying a Chain shares that
// encoding, and a Chain is immutable and safe to share between goroutines.
// The zero Chain is "no chain" (Len() == 0). UnmarshalChain validates the
// caller's bytes in place and then copies them once — the one copy that
// keeps a receiver's state apart from the sender's buffer; NewChain,
// Extend and Inner each write the new chain's encoding in one
// exactly-sized allocation. Marshal returns the encoding itself, capped at
// its length: the result is READ-ONLY (a caller that wants to change bytes
// copies first, as adversary.FlipByte does), appending to it reallocates,
// and Value's and a signature's bytes alias it under the same rule. A
// receiver may therefore keep an accepted chain's Value as its decision
// without copying it: no one can write those bytes.
//
// The nested encodings exist only as signature payloads. Extend writes the
// receiver's nested encoding straight into its pooled signing buffer — the
// headers of the outer layers, then the value field and the signature
// fields exactly as they sit in the flat encoding — and Verify recomputes
// the per-layer payloads in one forward sweep over two pooled scratch
// buffers that it keeps to itself. No chain keeps a nested encoding.

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

	// errChainCount rejects a signature count below one, above 2¹⁶, or
	// larger than the bytes behind it can hold. It is built once, so a
	// receiver pays nothing for a lying count.
	errChainCount = fmt.Errorf("%w: signature count does not fit the encoding", ErrChainEncoding)
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

// memoDirectory is a Directory carrying its key set's verify memo.
type memoDirectory interface{ VerifyMemo() *VerifyMemo }

// Chain is a chain-signed message: its validated flat wire encoding (see
// the representation notes above), passed by value. The zero value has no
// layers and stands for "no chain"; build chains with NewChain,
// Chain.Extend and UnmarshalChain.
type Chain struct {
	enc []byte
}

// NewChain creates the innermost chain message {value}_{signer}: the
// originator's statement. The originator's name is NOT part of the wire
// encoding; the first receiver attributes the signature to the immediate
// sender, and any later signer pins that name into the next layer.
func NewChain(value []byte, signer Signer) (Chain, error) {
	e := GetEncoder()
	e.Grow(BytesFieldSize(len(tagChainValue)) + BytesFieldSize(len(value)))
	e.Raw(appendValuePayload(e.Encoding(), value))
	sig, err := signer.Sign(e.Encoding())
	e.Release()
	if err != nil {
		return Chain{}, fmt.Errorf("sig: sign chain value: %w", err)
	}
	enc := make([]byte, 0, BytesFieldSize(len(value))+IntFieldSize+BytesFieldSize(len(sig)))
	enc = AppendBytes(enc, value)
	enc = AppendInt(enc, 1)
	return Chain{enc: AppendBytes(enc, sig)}, nil
}

// Extend returns a new chain with one more signature layer: the caller
// signs the existing chain together with outerAssignee, the name of the
// node the caller assigns the current outermost signature to (in the
// protocols of this repository, the node it received the chain from).
// The receiver chain is not modified. The statement is signed in a pooled
// buffer and the new chain's encoding is the receiver's with the count
// bumped, one name and one signature field added.
func (c Chain) Extend(outerAssignee model.NodeID, signer Signer) (Chain, error) {
	k := c.Len()
	if k == 0 {
		return Chain{}, ErrChainEmpty
	}
	valEnd, sigsAt := c.valueEnd(), c.sigsAt(k)
	nestedSize := c.nestedSize(k)
	e := GetEncoder()
	e.Grow(BytesFieldSize(len(tagChainLink)) + IntFieldSize + BytesFieldSize(nestedSize))
	e.Raw(c.appendNested(appendLinkHeader(e.Encoding(), outerAssignee, nestedSize), k))
	sig, err := signer.Sign(e.Encoding())
	e.Release()
	if err != nil {
		return Chain{}, fmt.Errorf("sig: sign chain link: %w", err)
	}
	enc := make([]byte, 0, len(c.enc)+IntFieldSize+BytesFieldSize(len(sig)))
	enc = append(enc, c.enc[:valEnd]...)
	enc = AppendInt(enc, k+1)
	enc = append(enc, c.enc[valEnd+IntFieldSize:sigsAt]...)
	enc = AppendInt(enc, int(outerAssignee))
	enc = append(enc, c.enc[sigsAt:]...)
	return Chain{enc: AppendBytes(enc, sig)}, nil
}

// Value returns the innermost payload m. It aliases the chain's
// encoding: read-only.
func (c Chain) Value() []byte {
	if len(c.enc) == 0 {
		return nil
	}
	end := c.valueEnd()
	return c.enc[4:end:end]
}

// Len returns the number of signature layers.
func (c Chain) Len() int {
	if len(c.enc) == 0 {
		return 0
	}
	return int(int64(binary.BigEndian.Uint64(c.enc[c.valueEnd():])))
}

// Signers returns the full claimed signer sequence given the immediate
// sender: embedded names followed by the sender, innermost first. This is
// the "P_0 said m, P_1 said that P_0 said m, …" reading from the paper.
func (c Chain) Signers(sender model.NodeID) []model.NodeID {
	return c.appendSigners(make([]model.NodeID, 0, c.Len()), sender)
}

// appendSigners appends the claimed signer sequence to dst.
func (c Chain) appendSigners(dst []model.NodeID, sender model.NodeID) []model.NodeID {
	for k := range c.Len() - 1 {
		dst = append(dst, c.name(k))
	}
	return append(dst, sender)
}

// Inner returns the chain without its outermost signature layer — the
// chain the last signer received and extended — or the zero Chain for a
// one-layer chain. Its encoding is a fresh copy of the receiver's lower
// layers.
func (c Chain) Inner() Chain {
	k := c.Len() - 1
	if k < 1 {
		return Chain{}
	}
	valEnd, sigsAt := c.valueEnd(), c.sigsAt(k+1)
	last := sigsAt
	for range k {
		_, last = c.sigAt(last)
	}
	enc := make([]byte, 0, valEnd+IntFieldSize*k+last-sigsAt)
	enc = append(enc, c.enc[:valEnd]...)
	enc = AppendInt(enc, k)
	enc = append(enc, c.enc[valEnd+IntFieldSize:sigsAt-IntFieldSize]...)
	return Chain{enc: append(enc, c.enc[sigsAt:last]...)}
}

// The flat encoding's offsets. valueEnd is where the value field ends and
// the count begins; name k is the k-th 8-byte field after the count; the
// signature fields follow the k-1 names of a k-layer chain.

func (c Chain) valueEnd() int { return 4 + int(binary.BigEndian.Uint32(c.enc)) }

func (c Chain) name(k int) model.NodeID {
	at := c.valueEnd() + IntFieldSize*(1+k)
	return model.NodeID(int64(binary.BigEndian.Uint64(c.enc[at:])))
}

func (c Chain) sigsAt(k int) int { return c.valueEnd() + IntFieldSize*k }

// sigAt returns the signature field at offset off (its bytes, read-only)
// and the offset of the next field.
func (c Chain) sigAt(off int) ([]byte, int) {
	end := off + 4 + int(binary.BigEndian.Uint32(c.enc[off:]))
	return c.enc[off+4 : end : end], end
}

// The chain wire layouts are defined ONCE each, by the append helpers
// below; every signing and verification path goes through them. Anything
// that changes a layout changes it for all callers at once — signing and
// verification cannot drift apart. appendNested writes the nested layers
// outside-in; the tests hold it to the bottom-up layer-by-layer encoding
// (slowEncodeNested) and to the spine-based reference chain.

// appendValuePayload appends the byte string the originator signs.
func appendValuePayload(dst, value []byte) []byte {
	dst = AppendString(dst, tagChainValue)
	return AppendBytes(dst, value)
}

// appendLinkPayload appends the byte string a chain extender signs: the
// assignee name of the enclosed message plus the enclosed message's
// nested encoding.
func appendLinkPayload(dst []byte, assignee model.NodeID, nested []byte) []byte {
	return append(appendLinkHeader(dst, assignee, len(nested)), nested...)
}

// appendLinkHeader appends a link payload up to the enclosed nested
// encoding's bytes, for a signer that writes those bytes itself.
func appendLinkHeader(dst []byte, assignee model.NodeID, nestedLen int) []byte {
	dst = AppendString(dst, tagChainLink)
	dst = AppendInt(dst, int(assignee))
	return AppendUint32(dst, uint32(nestedLen))
}

// appendNestedRoot appends the innermost nested-encoding layer
// (value, sig_0).
func appendNestedRoot(dst, value, sig0 []byte) []byte {
	dst = AppendBytes(dst, value)
	return AppendBytes(dst, sig0)
}

// nestedLayerOverhead is what one outer nested layer adds around the
// encoding it encloses, beyond its signature field: the assignee and the
// enclosed encoding's length prefix.
const nestedLayerOverhead = IntFieldSize + 4

// nestedSize returns the size of the k-layer chain's nested encoding: the
// value field, every signature field, and each outer layer's overhead.
func (c Chain) nestedSize(k int) int {
	return c.valueEnd() + len(c.enc) - c.sigsAt(k) + nestedLayerOverhead*(k-1)
}

// appendNested appends the k-layer chain's nested encoding — the byte
// string the NEXT signer signs together with an assignee name — to dst.
// Layer j's nested encoding is (name_{j-1}, nested_{j-1}, sig_j) and the
// innermost is (value, sig_0), so written outside-in it is the outer
// layers' headers (assignee, enclosed length), outermost first, then the
// value field and the signature fields exactly as the flat encoding holds
// them. The headers are filled innermost first, from the running size.
func (c Chain) appendNested(dst []byte, k int) []byte {
	valEnd, sigsAt := c.valueEnd(), c.sigsAt(k)
	at := len(dst)
	dst = append(dst, make([]byte, nestedLayerOverhead*(k-1))...)
	size := valEnd
	sg, off := c.sigAt(sigsAt)
	size += BytesFieldSize(len(sg))
	for j := 1; j < k; j++ {
		h := dst[at+nestedLayerOverhead*(k-1-j):]
		binary.BigEndian.PutUint64(h, uint64(c.name(j-1)))
		binary.BigEndian.PutUint32(h[IntFieldSize:], uint32(size))
		sg, off = c.sigAt(off)
		size += nestedLayerOverhead + BytesFieldSize(len(sg))
	}
	dst = append(dst, c.enc[:valEnd]...)
	return append(dst, c.enc[sigsAt:]...)
}

// Marshal returns the flat wire encoding: the chain's own bytes, capped at
// their length. It is READ-ONLY and costs nothing.
func (c Chain) Marshal() []byte { return c.enc[:len(c.enc):len(c.enc)] }

// MarshalTo appends the flat wire encoding to dst and returns the
// extended slice, for callers embedding a chain in a larger payload
// without an intermediate copy.
func (c Chain) MarshalTo(dst []byte) []byte { return append(dst, c.enc...) }

// MarshalSize returns the exact size of the flat wire encoding, so
// callers of MarshalTo can presize the destination buffer.
func (c Chain) MarshalSize() int { return len(c.enc) }

// UnmarshalChain parses a flat wire encoding. It validates structure only;
// signature checking is Verify's job. The structure is checked in data
// itself, and a signature count the bytes cannot hold is refused before
// anything is read or sized by it; only then is data copied, once, so the
// chain shares nothing with the caller.
func UnmarshalChain(data []byte) (Chain, error) {
	d := Decoder{buf: data}
	d.Bytes()
	nsigs := d.Int()
	if d.Err() != nil {
		return Chain{}, fmt.Errorf("%w: %v", ErrChainEncoding, d.Err())
	}
	// A chain never exceeds one signature per node plus slack, and each
	// layer takes at least a name and a length prefix.
	if nsigs < 1 || nsigs > 1<<16 || len(data)-d.off < IntFieldSize*(nsigs-1)+4*nsigs {
		return Chain{}, errChainCount
	}
	d.off += IntFieldSize * (nsigs - 1)
	for range nsigs {
		d.Bytes()
	}
	if err := d.Finish(); err != nil {
		return Chain{}, fmt.Errorf("%w: %v", ErrChainEncoding, err)
	}
	enc := make([]byte, len(data))
	copy(enc, data)
	return Chain{enc: enc}, nil
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
// sequence, innermost first, in a fresh slice; VerifyTo is the same check
// appending to a caller's buffer.
//
// A correct node that accepts a chain via Verify has, in the paper's
// terms, assigned the complete message to the sender and every sub-message
// to its stated node; Theorem 4 then guarantees all correct nodes make the
// same assignments or some correct node discovers a failure.
func (c Chain) Verify(sender model.NodeID, dir Directory) ([]model.NodeID, error) {
	signers, err := c.VerifyTo(nil, sender, dir)
	if err != nil {
		return nil, err
	}
	return signers, nil
}

// VerifyTo is Verify appending the signer sequence to dst: on success it
// returns dst extended by it, on failure dst unextended and the error;
// dst grows at most once. A receiver that reads the signers only until
// its next VerifyTo passes its own buffer back
// (buf, err = chain.VerifyTo(buf[:0], …)) and allocates nothing for them
// once the buffer holds its longest chain.
//
// Verification goes through the directory's verified-prefix memo
// (memo.go; the package default if it carries none): one small hash per
// layer derives the chain's prefix keys, and a chain the key set has
// already verified under the same predicates costs those and one map
// probe. Otherwise the layers above the longest memoized prefix are tested
// in order. The result (including which error, at which layer) is
// identical to checking the layers one by one in order; refChain.verify
// in the tests is that reference implementation. The chain itself is left
// untouched.
func (c Chain) VerifyTo(dst []model.NodeID, sender model.NodeID, dir Directory) ([]model.NodeID, error) {
	n := c.Len()
	if n == 0 {
		return dst, ErrChainEmpty
	}
	base := len(dst)
	dst = c.appendSigners(slices.Grow(dst, n), sender)
	signers := dst[base:]
	// Resolve predicates and derive the prefix keys up front. A serial
	// verifier stops at the first layer with no accepted predicate, so only
	// layers below that bound ("limit") are ever tested.
	s := chainScratchPool.Get().(*chainScratch)
	defer chainScratchPool.Put(s)
	memo := defaultVerifyMemo
	if d, ok := dir.(memoDirectory); ok && d.VerifyMemo() != nil {
		memo = d.VerifyMemo()
	}
	s.preds, s.keys = s.preds[:0], s.keys[:0]
	limit := n
	var key memoKey
	var sg []byte
	off := c.sigsAt(n)
	for k := range n {
		pred, ok := dir.PredicateOf(signers[k])
		if !ok {
			limit = k
			break
		}
		sg, off = c.sigAt(off)
		key, s.kbuf = c.prefixKey(s.kbuf, k, &key, memo.digestOf(pred), sg)
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
		value := c.Value()
		sg, off = c.sigAt(c.sigsAt(n))
		s.payload = appendValuePayload(s.payload[:0], value)
		s.ne = appendNestedRoot(s.ne[:0], value, sg)
		for k := range limit {
			if k > 0 {
				sg, off = c.sigAt(off)
				s.payload = appendLinkPayload(s.payload[:0], signers[k-1], s.ne)
				s.ne = AppendBytes(append(s.ne[:0], s.payload[tagLen:]...), sg)
			}
			if k >= verified && !memo.test(s.keys[k], s.preds[k], s.payload, sg) {
				return dst[:base], fmt.Errorf("%w: layer %d assigned to %v", ErrChainBadSignature, k, signers[k])
			}
		}
	}
	if limit < n {
		return dst[:base], fmt.Errorf("%w: layer %d assigned to %v", ErrChainUnknownSigner, limit, signers[limit])
	}
	return dst, nil
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
