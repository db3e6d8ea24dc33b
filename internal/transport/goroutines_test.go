package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
)

// stacks returns the stack trace of every goroutine, one per element.
func stacks() [][]byte {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Split(buf[:n], []byte("\n\n"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutinesIn counts the goroutines whose stack trace contains one of
// marks — a frame's function name (a closure's frames carry its
// function's name) or a "created by" line: the goroutines a mesh or a
// boot owns, and not the rest of the process's, such as the simulator's
// parked helpers, which start on first use and never stop.
func goroutinesIn(marks ...string) int {
	count := 0
	for _, g := range stacks() {
		for _, mark := range marks {
			if bytes.Contains(g, []byte(mark)) {
				count++
				break
			}
		}
	}
	return count
}

// MeshReaders counts the running link readers of meshes, by the
// receiver their readLoop frame names, so readers of meshes that other
// tests closed and that are still on their way out are never counted. A
// reader that has not started yet has no such frame: a caller that
// counts a new mesh's readers waits for them.
func MeshReaders(meshes []*Mesh) int {
	count := 0
	for _, g := range stacks() {
		for _, m := range meshes {
			frame := []byte(fmt.Sprintf("repro/internal/transport.(*Mesh).readLoop(%p", m))
			if i := bytes.Index(g, frame) + len(frame); i >= len(frame) && i < len(g) && strings.IndexByte(",?)", g[i]) >= 0 {
				count++
				break
			}
		}
	}
	return count
}
