package sig

import (
	"fmt"

	"repro/internal/model"
)

// refChain is the chain as it was before a Chain became its flat wire
// encoding: a value, a names spine and a signatures spine, each layer a
// slice of its own, plus a nested-encoding cache. It is kept verbatim
// (renamed, and with its memo-backed Verify replaced by the memo-free
// serial verifier below) as the oracle of FuzzChainMatchesReference and of
// the tests that compare the encoding-backed Chain against it byte for
// byte.
type refChain struct {
	value  []byte
	names  []model.NodeID
	sigs   [][]byte
	nested []byte
}

func refNewChain(value []byte, signer Signer) (*refChain, error) {
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
	return &refChain{value: v, sigs: [][]byte{sig}, nested: nested}, nil
}

func (c *refChain) Extend(outerAssignee model.NodeID, signer Signer) (*refChain, error) {
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
	value := make([]byte, len(c.value))
	copy(value, c.value)
	sigs := make([][]byte, len(c.sigs)+1)
	copy(sigs, c.sigs)
	sigs[len(c.sigs)] = sig
	next := make([]byte, 0, IntFieldSize+BytesFieldSize(len(nested))+BytesFieldSize(len(sig)))
	next = appendNestedLayer(next, outerAssignee, nested, sig)
	return &refChain{
		value:  value,
		names:  model.CloneAppend(c.names, outerAssignee),
		sigs:   sigs,
		nested: next,
	}, nil
}

func (c *refChain) Value() []byte { return c.value }

func (c *refChain) Len() int { return len(c.sigs) }

func (c *refChain) Signers(sender model.NodeID) []model.NodeID {
	return model.CloneAppend(c.names, sender)
}

func (c *refChain) Inner() *refChain {
	k := len(c.sigs) - 1
	if k < 1 {
		return nil
	}
	return &refChain{value: c.value, names: c.names[: k-1 : k-1], sigs: c.sigs[:k:k]}
}

func (c *refChain) nestedEncoding() []byte {
	if c.nested == nil {
		c.nested = c.computeNested()
	}
	return c.nested
}

func (c *refChain) computeNested() []byte {
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

func (c *refChain) Marshal() []byte {
	return c.MarshalTo(make([]byte, 0, c.MarshalSize()))
}

func (c *refChain) MarshalTo(dst []byte) []byte {
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

func (c *refChain) MarshalSize() int {
	size := BytesFieldSize(len(c.value)) + IntFieldSize + IntFieldSize*len(c.names)
	for _, s := range c.sigs {
		size += BytesFieldSize(len(s))
	}
	return size
}

func refUnmarshalChain(data []byte) (*refChain, error) {
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
	if nsigs < 1 || nsigs > 1<<16 {
		return nil, fmt.Errorf("%w: implausible signature count %d", ErrChainEncoding, nsigs)
	}
	c := &refChain{
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

// appendNestedLayer appends one outer nested-encoding layer
// (assignee, enclosed encoding, signature).
func appendNestedLayer(dst []byte, assignee model.NodeID, enc, sg []byte) []byte {
	dst = AppendInt(dst, int(assignee))
	dst = AppendBytes(dst, enc)
	return AppendBytes(dst, sg)
}

// verify is the reference verifier: one predicate test per layer, in
// order, stopping at the first failure — no memo. Chain.Verify must return
// the same signers and the same error (same sentinel, same layer) for
// every input, cold and warm.
func (c *refChain) verify(sender model.NodeID, dir Directory) ([]model.NodeID, error) {
	if len(c.sigs) == 0 {
		return nil, ErrChainEmpty
	}
	if len(c.names) != len(c.sigs)-1 {
		return nil, fmt.Errorf("%w: %d names for %d signatures",
			ErrChainEncoding, len(c.names), len(c.sigs))
	}
	signers := c.Signers(sender)
	const tagLen = 4 + len(tagChainLink)
	pe, ne := GetEncoder(), GetEncoder()
	defer pe.Release()
	defer ne.Release()
	pe.Grow(BytesFieldSize(len(tagChainValue)) + BytesFieldSize(len(c.value)))
	pe.Raw(appendValuePayload(pe.Encoding(), c.value))
	ne.Grow(BytesFieldSize(len(c.value)) + BytesFieldSize(len(c.sigs[0])))
	ne.Raw(appendNestedRoot(ne.Encoding(), c.value, c.sigs[0]))
	for k := 0; k < len(c.sigs); k++ {
		who := signers[k]
		pred, ok := dir.PredicateOf(who)
		if !ok {
			return nil, fmt.Errorf("%w: layer %d assigned to %v", ErrChainUnknownSigner, k, who)
		}
		if !pred.Test(pe.Encoding(), c.sigs[k]) {
			return nil, fmt.Errorf("%w: layer %d assigned to %v", ErrChainBadSignature, k, who)
		}
		if k+1 < len(c.sigs) {
			pe.Reset()
			pe.Grow(tagLen + IntFieldSize + BytesFieldSize(ne.Len()))
			pe.Raw(appendLinkPayload(pe.Encoding(), c.names[k], ne.Encoding()))
			// nested_{k+1} is appendNestedLayer(name_k, nested_k, sig_{k+1});
			// its (name, nested) body is payload_{k+1} minus the tag field,
			// so splice it from pe instead of re-encoding.
			body := pe.Encoding()[tagLen:]
			ne.Reset()
			ne.Grow(len(body) + BytesFieldSize(len(c.sigs[k+1])))
			ne.Raw(body).Bytes(c.sigs[k+1])
		}
	}
	return signers, nil
}

// refOf is c's reference twin, parsed from c's encoding.
func refOf(c Chain) *refChain {
	r, err := refUnmarshalChain(c.Marshal())
	if err != nil {
		panic(fmt.Sprintf("a chain's own encoding fails the reference decoder: %v", err))
	}
	return r
}

// verifySerial verifies c with the reference verifier.
func (c Chain) verifySerial(sender model.NodeID, dir Directory) ([]model.NodeID, error) {
	return refOf(c).verify(sender, dir)
}
