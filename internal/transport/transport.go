// Package transport runs the lockstep protocols over real byte transports
// — an in-memory mesh for tests and a TCP mesh (stdlib net) for actual
// sockets — demonstrating that nothing in the library depends on the
// simulator. MeshEngine is the entry point: the run engine a core.Cluster
// takes in place of the simulator (core.WithEngine), which is how
// `fdsim -transport tcp` and examples/tcpcluster put whole lifecycles on
// sockets.
//
// The model's synchronous rounds are recovered over an asynchronous
// transport with a standard synchronizer: each node sends its round-r
// protocol messages followed by a round-r DONE marker to every peer, and
// advances to round r+1 only after collecting DONE(r) from all peers.
// Reliable in-order delivery (TCP / channels) plus the barrier gives
// exactly the delivery guarantee N1 demands; the identity of the immediate
// sender (N2) is the connection's identity. Each marker also says whether
// its sender was quiet — finished, nothing of its own in flight — and a
// run ends after the first round everyone was, which is the simulator's
// early exit.
//
// Trust note: the TCP mesh authenticates peers by a plaintext hello frame,
// and the runners believe a peer's quiet bit; both are fine for the
// single-trust-domain runs of `fdsim -transport tcp` and the tests. A
// peer lying "not quiet" costs rounds up to the protocol's bound, never
// correctness; one lying "quiet" to some peers only can strand the rest on
// a barrier until the transport closes. A hostile-network deployment would
// pin peer identity with mTLS; that is orthogonal to the paper's
// protocols, which only need N2 as an oracle for the OUTERMOST hop —
// everything else rides on the signatures.
package transport

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/sig"
)

// Transport delivers raw frames between nodes. Implementations must allow
// concurrent Send and Recv.
type Transport interface {
	// Self returns the local node ID.
	Self() model.NodeID
	// Peers returns the IDs of all reachable peers.
	Peers() []model.NodeID
	// Send transmits one frame to a peer.
	Send(to model.NodeID, frame []byte) error
	// Recv blocks for the next frame and its sender. It returns an error
	// when the transport closes.
	Recv() (from model.NodeID, frame []byte, err error)
	// Close releases the transport's resources.
	Close() error
}

// ErrClosed is returned by Recv after Close.
var ErrClosed = errors.New("transport: closed")

// Frame types multiplexed on the wire.
const (
	frameMessage = 1 // a protocol message
	frameDone    = 2 // round-completion marker; its kind field is the quiet bit
)

// encodeFrame packs a protocol message or DONE marker in one
// exactly-sized allocation.
func encodeFrame(ftype int, round int, kind model.MessageKind, payload []byte) []byte {
	out := make([]byte, 0, 3*sig.IntFieldSize+sig.BytesFieldSize(len(payload)))
	out = sig.AppendInt(out, ftype)
	out = sig.AppendInt(out, round)
	out = sig.AppendInt(out, int(kind))
	return sig.AppendBytes(out, payload)
}

// decodeFrame unpacks a frame. A kind the message-kind type cannot hold
// is refused rather than truncated onto a valid one, so every accepted
// frame is the encoding of exactly what is returned.
func decodeFrame(frame []byte) (ftype, round int, kind model.MessageKind, payload []byte, err error) {
	d := sig.NewDecoder(frame)
	ftype = d.Int()
	round = d.Int()
	k := d.Int()
	payload = d.Bytes()
	if ferr := d.Finish(); ferr != nil {
		return 0, 0, 0, nil, fmt.Errorf("transport: bad frame: %w", ferr)
	}
	if kind = model.MessageKind(k); int(kind) != k {
		return 0, 0, 0, nil, fmt.Errorf("transport: bad frame: message kind %d out of range", k)
	}
	return ftype, round, kind, payload, nil
}
