package dataaccess

import (
	"sync"
	"time"
)

// Heartbeat periodically republishes this instance's hosted tables to the
// RLS so soft-state registrations never expire while the server is alive
// (Globus RLS-style renewal; crashed servers age out after the catalog
// TTL).
type Heartbeat struct {
	svc      *Service
	interval time.Duration
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewHeartbeat creates a renewal loop; choose interval well below the RLS
// server's TTL (e.g. TTL/3).
func NewHeartbeat(svc *Service, interval time.Duration) *Heartbeat {
	return &Heartbeat{svc: svc, interval: interval, stop: make(chan struct{})}
}

// Start launches the renewal loop; a no-op when interval <= 0.
func (h *Heartbeat) Start() {
	if h.interval <= 0 {
		return
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		ticker := time.NewTicker(h.interval)
		defer ticker.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-ticker.C:
				if err := h.svc.PublishAll(); err != nil {
					h.svc.obs.logger.Warn("rls renewal failed", "err", err)
				}
			}
		}
	}()
}

// Stop halts the loop.
func (h *Heartbeat) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.wg.Wait()
}
