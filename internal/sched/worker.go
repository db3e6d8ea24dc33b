package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/transport"
)

// WorkerConfig tunes one worker loop.
type WorkerConfig struct {
	// Name identifies the worker in the coordinator's attempt logs and
	// exclusion sets (default "worker"; the coordinator de-duplicates).
	Name string
	// Heartbeat is the deadline-extension interval while executing a
	// lease. Zero derives it from each lease's deadline (a third, floored
	// at 5ms), which keeps long batches alive without tuning.
	Heartbeat time.Duration
	// Options configure the worker's campaign.Executor (setup cache etc.).
	Options []campaign.Option
}

// RunWorker speaks the worker side of the scheduler protocol on conn
// until the coordinator sends shutdown, the connection dies, or ctx is
// canceled. Each lease's instances run on a private campaign.Executor, so
// a worker process amortizes setup across every batch it is handed —
// without ever being able to affect the report's bytes (results are a
// pure function of the instances).
func RunWorker(ctx context.Context, conn transport.Conn, cfg WorkerConfig) error {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if err := conn.Send(transport.EncodeHello(KindHello, wireTag, cfg.Name)); err != nil {
		conn.Close()
		return fmt.Errorf("sched: worker hello: %w", err)
	}
	// ctx cancellation surfaces as a conn error on the blocked Recv.
	watchdog := make(chan struct{})
	defer close(watchdog)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchdog:
		}
	}()

	// A driver panic costs its instance campaign.ErrDriverPanic (the
	// executor contains it); the rest of the batch and every later lease
	// still execute over the same executor.
	exec := campaign.NewExecutor(cfg.Options...)
	for {
		frame, err := conn.Recv()
		if err != nil {
			conn.Close()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("sched: worker link lost: %w", err)
		}
		switch transport.FrameKind(frame) {
		case KindLease:
			lease, err := decodeLease(frame)
			if err != nil {
				// The ID decodes before the checksum check, so even a
				// corrupt lease usually NACKs precisely.
				conn.Send(encodeNack(lease.ID, err.Error()))
				continue
			}
			var instances []campaign.Instance
			if err := json.Unmarshal(lease.Payload, &instances); err != nil {
				conn.Send(encodeNack(lease.ID, "undecodable batch payload: "+err.Error()))
				continue
			}
			if err := runLease(conn, exec.Run, cfg, lease, instances); err != nil {
				conn.Close()
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
		case KindShutdown:
			conn.Close()
			return nil
		default:
			// Unknown traffic is ignored, not fatal: a newer coordinator
			// may speak frames this worker predates.
		}
	}
}

// runLease executes one leased batch under a heartbeat, then reports the
// results. Errors mean the link is unusable.
func runLease(conn transport.Conn, run func(campaign.Instance) campaign.Result, cfg WorkerConfig, lease leaseMsg, instances []campaign.Instance) error {
	interval := cfg.Heartbeat
	if interval <= 0 {
		interval = time.Duration(lease.Deadline) * time.Millisecond / 3
		if interval < 5*time.Millisecond {
			interval = 5 * time.Millisecond
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if conn.Send(encodeHeartbeat(lease.ID)) != nil {
					return
				}
			case <-stop:
				return
			}
		}
	}()

	results := make([]campaign.Result, len(instances))
	for i, inst := range instances {
		results[i] = run(inst)
	}
	payload, err := json.Marshal(results)
	if err != nil {
		// Results are plain data; unreachable. NACK so the coordinator
		// requeues instead of waiting out the lease.
		if nerr := conn.Send(encodeNack(lease.ID, "unmarshalable results: "+err.Error())); nerr != nil {
			return fmt.Errorf("sched: worker nack: %w", nerr)
		}
		return nil
	}
	if err := conn.Send(transport.EncodePayload(KindResult, lease.ID, payload)); err != nil {
		return fmt.Errorf("sched: worker result send: %w", err)
	}
	return nil
}
