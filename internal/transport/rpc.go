package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"

	"repro/internal/sig"
)

// The RPC envelope the long-lived processes speak over a Conn — the
// scheduler's coordinator/worker link (internal/sched) and the agreement
// daemon's client/server link (internal/service). Every frame is a tuple
// in the repository's canonical length-delimited codec (internal/sig)
// that starts with an integer kind. Two shapes are shared and live only
// here; each protocol keeps its kind table and the few frames that are
// its own:
//
//	hello    kind, tag, name                       first frame on a link (a TCP mesh's too)
//	payload  kind, id, extra ints…, SHA-256, payload
//
// The checksum covers the payload, so a corrupted frame is DETECTED and
// handled as a fault of the link (requeue the lease, fail the request)
// instead of silently poisoning a report or a verdict: determinism by
// construction is only as good as the integrity of the bytes it
// aggregates.

// FrameKind peeks a frame's kind without decoding the rest (-1 when the
// frame is too short to carry one).
func FrameKind(frame []byte) int {
	if len(frame) < sig.IntFieldSize {
		return -1
	}
	return sig.NewDecoder(frame).Int()
}

// EncodeHello frames a link's first message: the protocol tag, which
// guards against cross-protocol connections, and the caller's name.
func EncodeHello(kind int, tag, name string) []byte {
	out := make([]byte, 0, sig.IntFieldSize+sig.BytesFieldSize(len(tag))+sig.BytesFieldSize(len(name)))
	out = sig.AppendInt(out, kind)
	out = sig.AppendString(out, tag)
	return sig.AppendString(out, name)
}

// DecodeHello decodes a hello of the given kind, refusing a foreign tag
// and an empty name.
func DecodeHello(frame []byte, kind int, tag string) (name string, err error) {
	d := sig.NewDecoder(frame)
	if got := d.Int(); got != kind {
		return "", fmt.Errorf("transport: expected %s hello, got frame kind %d", tag, got)
	}
	if got := d.String(); got != tag {
		return "", fmt.Errorf("transport: bad protocol tag %q (want %s)", got, tag)
	}
	name = d.String()
	if ferr := d.Finish(); ferr != nil {
		return "", fmt.Errorf("transport: bad %s hello: %w", tag, ferr)
	}
	if name == "" {
		return "", fmt.Errorf("transport: %s hello with empty name", tag)
	}
	return name, nil
}

// EncodePayload frames one checksummed payload-bearing kind: the kind,
// the lease or request ID, any extra integers the kind carries, a
// SHA-256 over the payload, and the payload itself.
func EncodePayload(kind, id int, payload []byte, extra ...int) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, (2+len(extra))*sig.IntFieldSize+sig.BytesFieldSize(len(sum))+sig.BytesFieldSize(len(payload)))
	out = sig.AppendInt(out, kind)
	out = sig.AppendInt(out, id)
	for _, x := range extra {
		out = sig.AppendInt(out, x)
	}
	out = sig.AppendBytes(out, sum[:])
	return sig.AppendBytes(out, payload)
}

// DecodePayload decodes and checksum-verifies one payload-bearing frame
// of the given kind, storing its extra integers through extra; what
// names the frame in errors. The ID decodes before the checksum check
// and is returned even when that fails, so the receiver of a corrupt
// frame can usually still say which lease or request it lost. The
// payload aliases frame.
func DecodePayload(frame []byte, kind int, what string, extra ...*int) (id int, payload []byte, err error) {
	d := sig.NewDecoder(frame)
	if got := d.Int(); got != kind {
		return 0, nil, fmt.Errorf("transport: expected %s, got frame kind %d", what, got)
	}
	id = d.Int()
	for _, x := range extra {
		*x = d.Int()
	}
	sum := d.Bytes()
	payload = d.Bytes()
	if ferr := d.Finish(); ferr != nil {
		return id, nil, fmt.Errorf("transport: bad %s frame: %w", what, ferr)
	}
	if want := sha256.Sum256(payload); !bytes.Equal(sum, want[:]) {
		return id, nil, fmt.Errorf("transport: %s %d payload checksum mismatch", what, id)
	}
	return id, payload, nil
}

// DebugMux returns the debug HTTP surface a long-lived process serves
// behind -debug-addr:
//
//	path          — snapshot() as indented JSON
//	/debug/vars   — stdlib expvar (cmdline, memstats)
//	/debug/pprof/ — stdlib pprof profiles
//
// Everything on it is advisory telemetry (wall-clock, queue depth,
// placement) — the data the deterministic reports and served verdicts
// exclude — so exposing it can never perturb a result.
func DebugMux(path string, snapshot func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
