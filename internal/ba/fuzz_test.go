package ba

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/sig"
)

// FuzzUnmarshalOralEntries feeds arbitrary bytes to OM(t)'s one parser
// of what a faulty node sent, differentially: streamed into a fresh
// node, as the first relay round's report from the sender, a later relay
// round's and the final round's, the payload must leave the tree, the
// relay batch and the resolution that the reference decoder and node
// (eig_ref_test.go) leave — and never panic. A batch the reference
// accepts must re-marshal to the bytes it came from (the encoding is
// canonical: fixed-width ints, length-prefixed values, no trailing
// bytes). diffOralPayload (eig_run_test.go) is the comparison; for a
// payload the reference rejects it also requires the value table and the
// relay batch a fresh node has.
func FuzzUnmarshalOralEntries(f *testing.F) {
	many := make([]OralEntry, 9)
	for i := range many {
		many[i] = OralEntry{Path: []model.NodeID{Sender, model.NodeID(i + 1)}, Value: bytes.Repeat([]byte{byte(i)}, i)}
	}
	// Final-round reports with several values, one of them repeated for a
	// path already told, one the default, one empty.
	multi := []OralEntry{
		{Path: []model.NodeID{Sender, 3, 1}, Value: []byte("a")},
		{Path: []model.NodeID{Sender, 4, 1}, Value: []byte("b")},
		{Path: []model.NodeID{Sender, 3, 1}, Value: []byte("c")},
		{Path: []model.NodeID{Sender, 5, 1}, Value: DefaultValue},
		{Path: []model.NodeID{Sender, 6, 1}, Value: nil},
		{Path: []model.NodeID{Sender, 4, 3}, Value: []byte("a")},
	}
	for _, entries := range [][]OralEntry{
		nil,
		{{Path: []model.NodeID{Sender}, Value: []byte("value")}},
		many,
		multi,
		// An empty path makes a payload malformed, the entry before it too.
		{{Path: []model.NodeID{Sender}, Value: []byte("lost")}, {Value: []byte("no path")}},
	} {
		data := MarshalOralEntries(entries)
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
	}
	// One entry whose value claims a byte more than any field may hold.
	overlong := sig.AppendInt(sig.AppendInt(sig.AppendInt(nil, 1), 1), int(Sender))
	f.Add(sig.AppendUint32(overlong, maxOralValueLen+1))
	// What the single walk could get wrong: shapes that change at every
	// entry, share a stride, belong to another round, end early — and
	// payloads that store entries before they prove malformed, which must
	// be undone.
	for _, tc := range runWalkerPayloads() {
		f.Add(tc.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		diffOralPayload(t, data)
		entries, err := unmarshalOralEntries(data)
		if err != nil {
			return
		}
		if again := MarshalOralEntries(entries); !bytes.Equal(again, data) {
			t.Fatalf("accepted batch re-marshals to %x, came from %x", again, data)
		}
	})
}
