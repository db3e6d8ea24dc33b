package transport

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/sig"
)

// FuzzRunnerFrame feeds arbitrary bytes to the runner's own frame
// decoder — what every mesh peer writes to directly. It must not panic,
// and a frame it accepts is exactly the one the encoder builds from the
// decoded fields: no two byte strings mean the same frame.
func FuzzRunnerFrame(f *testing.F) {
	f.Add(encodeFrame(frameMessage, 2, model.KindChainValue, []byte("chain bytes")))
	f.Add(encodeFrame(frameDone, 3, 0, nil))
	// Kind 0x100 + chain-value: refused, not truncated onto chain-value.
	aliased := encodeFrame(frameMessage, 2, model.KindChainValue, nil)
	aliased[3*sig.IntFieldSize-2] = 1
	f.Add(aliased)
	f.Add(encodeFrame(frameDone, 3, doneQuiet, nil))
	f.Fuzz(func(t *testing.T, frame []byte) {
		ftype, round, kind, payload, err := decodeFrame(frame)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeFrame(ftype, round, kind, payload), frame) {
			t.Fatalf("accepted frame (type %d, round %d, kind %d, %d payload bytes) does not re-encode to itself",
				ftype, round, kind, len(payload))
		}
	})
}
