// Package fixture holds lockscope positive cases.
package fixture

import (
	"context"
	"net/http"
	"sync"

	"gridrdb/internal/clarens"
)

type peerTable struct {
	mu    sync.Mutex
	peers map[string]*clarens.Client
	c     *clarens.Client
	ch    chan int
}

// rpcUnderLock is the PR 2 handleLogin bug class: one slow peer and
// every request queues behind the mutex.
func (p *peerTable) rpcUnderLock() (interface{}, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.c.CallContext(context.Background(), "system.echo", "hi") // want `lockscope: clarens.Client.CallContext call while holding p.mu`
}

// sendUnderLock blocks on a full channel with the mutex held.
func (p *peerTable) sendUnderLock(v int) {
	p.mu.Lock()
	p.ch <- v // want `lockscope: channel send while holding p.mu`
	p.mu.Unlock()
}

// httpUnderLock does raw HTTP I/O inside the critical section.
func (p *peerTable) httpUnderLock(cl *http.Client, req *http.Request) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	resp, err := cl.Do(req) // want `lockscope: http.Client.Do call while holding p.mu`
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// branchUnderLock: the lock is held entering the branch, so the branch
// body is scanned too.
func (p *peerTable) branchUnderLock(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.peers[name]; ok {
		c.CallContext(context.Background(), "system.echo") // want `lockscope: clarens.Client.CallContext call while holding p.mu`
	}
}
