// Package proximity implements the paper's first future-work item (§6):
// "the design of a system that could decide the closest available database
// (in terms of network connectivity) from a set of replicated databases."
//
// A Prober measures the round-trip time of a trivial probe
// query against every member database of a Unity federation, smooths the
// measurements with an exponentially weighted moving average, and installs
// the result as the source's proximity cost. The federation's replica
// selector then routes each sub-query to the closest replica first,
// falling back to load distribution among equals.
package proximity

import (
	"context"
	"sync"
	"time"

	"gridrdb/internal/unity"
)

// DefaultAlpha is the EWMA smoothing factor (weight of the newest sample).
const DefaultAlpha = 0.3

// probeSQL is a trivial query every engine dialect answers without
// touching a table.
const probeSQL = "SELECT 1"

// Prober measures and maintains per-source proximity costs.
type Prober struct {
	fed   *unity.Federation
	alpha float64

	mu   sync.Mutex
	ewma map[string]time.Duration
	fail map[string]int

	// measure is injectable for tests and simulations.
	measure func(ctx context.Context, source string) (time.Duration, error)
}

// NewProber creates a prober for a federation; probes run on explicit
// ProbeOnce calls.
func NewProber(fed *unity.Federation) *Prober {
	p := &Prober{
		fed:   fed,
		alpha: DefaultAlpha,
		ewma:  make(map[string]time.Duration),
		fail:  make(map[string]int),
	}
	p.measure = p.measureRTT
	return p
}

// measureRTT times one probe query against a source.
func (p *Prober) measureRTT(ctx context.Context, source string) (time.Duration, error) {
	start := time.Now()
	if _, err := p.fed.QuerySource(ctx, source, probeSQL); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// ProbeOnce measures every source once, under ctx, and updates the
// federation's costs. It returns the smoothed cost per source.
func (p *Prober) ProbeOnce(ctx context.Context) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, name := range p.fed.Sources() {
		rtt, err := p.measure(ctx, name)
		p.mu.Lock()
		if err != nil {
			p.fail[name]++
			// After repeated failures, poison the cost so the selector
			// avoids the replica ("closest *available* database").
			if p.fail[name] >= 3 {
				p.ewma[name] = time.Hour
			}
		} else {
			p.fail[name] = 0
			prev, seen := p.ewma[name]
			if !seen {
				p.ewma[name] = rtt
			} else {
				p.ewma[name] = time.Duration(p.alpha*float64(rtt) + (1-p.alpha)*float64(prev))
			}
		}
		cost, ok := p.ewma[name]
		p.mu.Unlock()
		if ok {
			p.fed.SetSourceCost(name, cost)
			out[name] = cost
		}
	}
	return out
}

// SetMeasureFunc injects a custom measurement function (tests and
// simulations).
func (p *Prober) SetMeasureFunc(f func(ctx context.Context, source string) (time.Duration, error)) {
	p.measure = f
}
