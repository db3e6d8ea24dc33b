package sched

import (
	"context"

	"repro/internal/service"
	"repro/internal/transport"
)

// WorkerConfig names one worker.
type WorkerConfig struct {
	// Name identifies the worker in the coordinator's attempt logs and
	// exclusion sets (default "worker"; the coordinator de-duplicates).
	Name string
}

// RunWorker serves the coordinator at the other end of conn as the one
// session of a fresh agreement daemon (service.Server.ServeDialled),
// then drains it. It returns nil when the coordinator closes the link,
// ctx's error when ctx ends it, and otherwise why the link failed. A
// process that wants run options builds the service.Server itself.
func RunWorker(ctx context.Context, conn transport.Conn, cfg WorkerConfig) error {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	srv := service.NewServer(service.Config{})
	defer srv.Drain()
	return srv.ServeDialled(ctx, conn, cfg.Name)
}
