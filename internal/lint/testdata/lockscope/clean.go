package fixture

import (
	"context"

	"gridrdb/internal/clarens"
)

// unlockFirst snapshots under the lock and does the RPC outside it — the
// fix lockscope is steering toward.
func (p *peerTable) unlockFirst(name string) (interface{}, error) {
	p.mu.Lock()
	c := p.peers[name]
	p.mu.Unlock()
	if c == nil {
		return nil, nil
	}
	return c.CallContext(context.Background(), "system.echo", "hi")
}

// lockedMapWork holds the mutex for map access only — no I/O, no sends.
func (p *peerTable) lockedMapWork(name string, c *clarens.Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.peers == nil {
		p.peers = make(map[string]*clarens.Client)
	}
	p.peers[name] = c
}

// goroutineEscapes: a function literal under the lock runs later, on its
// own lock discipline; launching it is not I/O.
func (p *peerTable) goroutineEscapes() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		p.c.CallContext(context.Background(), "system.echo")
	}()
}
