package ba

import (
	"bytes"
	"testing"

	"repro/internal/model"
)

// FuzzUnmarshalOralEntries feeds arbitrary bytes to the oral-entry batch
// decoder — the one parser in OM(t) that reads what a faulty node sent.
// It must never panic, and a batch it accepts must re-marshal to the
// bytes it came from (the encoding is canonical: fixed-width ints,
// length-prefixed values, no trailing bytes). The streaming decoder of
// the final round reads the same format and rides along for panics.
func FuzzUnmarshalOralEntries(f *testing.F) {
	many := make([]OralEntry, 9)
	for i := range many {
		many[i] = OralEntry{Path: []model.NodeID{Sender, model.NodeID(i + 1)}, Value: bytes.Repeat([]byte{byte(i)}, i)}
	}
	for _, entries := range [][]OralEntry{
		nil,
		{{Path: []model.NodeID{Sender}, Value: []byte("value")}},
		many,
	} {
		data := MarshalOralEntries(entries)
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
	}
	node, err := NewEIGNode(model.Config{N: 4, T: 1}, 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		node.storeOralEntries(data, 2, 1, nil)
		entries, err := unmarshalOralEntries(data)
		if err != nil {
			return
		}
		if again := MarshalOralEntries(entries); !bytes.Equal(again, data) {
			t.Fatalf("accepted batch re-marshals to %x, came from %x", again, data)
		}
	})
}
