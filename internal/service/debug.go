package service

import (
	"net/http"

	"repro/internal/transport"
)

// DebugMux returns the daemon's debug HTTP surface: the live service
// Snapshot as JSON at /debug/serve beside the expvar and pprof routes of
// transport.DebugMux. cmd/fdserve serves it behind -debug-addr.
func (s *Server) DebugMux() *http.ServeMux {
	return transport.DebugMux("/debug/serve", func() any { return s.Snapshot() })
}
