package sig

import (
	"fmt"

	"repro/internal/model"
)

// verifySerial is the reference implementation of Verify: one predicate
// test per layer, in order, stopping at the first failure — no memo. It
// is the differential oracle: Verify must return the same signers and the
// same error (same sentinel, same layer) for every input.
func (c *Chain) verifySerial(sender model.NodeID, dir Directory) ([]model.NodeID, error) {
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
	if c.nested == nil {
		c.nested = ne.AppendTo(nil)
	}
	return signers, nil
}
