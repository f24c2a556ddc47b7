// Package netsim provides deterministic network-cost simulation for the
// gridrdb benchmarks. The paper's measurements were taken on a 100 Mbps
// Ethernet LAN between two Pentium-IV machines; our substrate runs over
// loopback where connection setup, authentication and data transfer are
// effectively free. netsim restores those costs so that the *shape* of the
// paper's results (relative costs, crossovers) is preserved: a Profile
// charges a per-operation latency plus a bandwidth-proportional transfer
// time, and the injected delays are also accounted (not only slept) so
// benchmarks can report simulated wall-clock time.
package netsim

import (
	"sync/atomic"
	"time"
)

// Profile describes the simulated link between two hosts.
type Profile struct {
	// Name identifies the profile in reports ("lan100", "wan", "local").
	Name string
	// RTT is the round-trip latency charged once per request/response
	// exchange.
	RTT time.Duration
	// ConnectCost is charged when a new connection (plus authentication
	// handshake) is established. The paper attributes much of the
	// distributed-query penalty to "connecting and authenticating with
	// several databases or servers".
	ConnectCost time.Duration
	// BytesPerSecond is the link bandwidth used to charge transfer time;
	// zero means infinite bandwidth.
	BytesPerSecond int64
	// Sleep controls whether delays are actually slept (true, for
	// realistic end-to-end timing) or only accounted (false, for fast
	// simulation runs that report simulated time).
	Sleep bool
}

// Standard profiles. LAN100 approximates the paper's test bed: 100 Mbps
// Ethernet, sub-millisecond RTT, and a multi-round-trip connection plus
// authentication handshake typical of 2005-era database servers.
var (
	// Local is a zero-cost profile (pure in-process measurement).
	Local = &Profile{Name: "local"}
	// LAN100 approximates the paper's 100 Mbps LAN.
	LAN100 = &Profile{
		Name:           "lan100",
		RTT:            400 * time.Microsecond,
		ConnectCost:    45 * time.Millisecond,
		BytesPerSecond: 100_000_000 / 8,
		Sleep:          true,
	}
	// WAN approximates the tiered wide-area topology of the LHC computing
	// model (Tier-0 CERN to Tier-2 university sites).
	WAN = &Profile{
		Name:           "wan",
		RTT:            30 * time.Millisecond,
		ConnectCost:    120 * time.Millisecond,
		BytesPerSecond: 10_000_000 / 8,
		Sleep:          true,
	}
)

// Clock accumulates simulated network time. It is safe for concurrent use;
// concurrent charges accumulate independently (the benchmarks report the
// accumulated serial cost, while wall time reflects parallelism).
type Clock struct {
	simulated atomic.Int64 // nanoseconds
}

// Simulated returns the accumulated simulated network time.
//
//lint:ignore deadcode the charge total is how the clarens, rls, warehouse and wire tests assert that each layer charges its link
func (c *Clock) Simulated() time.Duration { return time.Duration(c.simulated.Load()) }

func (c *Clock) charge(p *Profile, d time.Duration) {
	if d <= 0 {
		return
	}
	c.simulated.Add(int64(d))
	if p.Sleep {
		time.Sleep(d)
	}
}

// Connect charges one connection establishment (TCP + auth handshake).
func (c *Clock) Connect(p *Profile) { c.charge(p, p.ConnectCost) }

// RoundTrip charges one request/response exchange carrying n payload bytes.
func (c *Clock) RoundTrip(p *Profile, n int64) {
	d := p.RTT
	if p.BytesPerSecond > 0 && n > 0 {
		d += time.Duration(float64(n) / float64(p.BytesPerSecond) * float64(time.Second))
	}
	c.charge(p, d)
}

// Transfer charges pure payload transfer of n bytes (no RTT), used by the
// streaming ETL path where data flows in one direction.
func (c *Clock) Transfer(p *Profile, n int64) {
	if p.BytesPerSecond <= 0 {
		return
	}
	c.charge(p, time.Duration(float64(n)/float64(p.BytesPerSecond)*float64(time.Second)))
}

// DefaultClock is the process-wide clock used when callers do not supply
// their own.
var DefaultClock = &Clock{}

// registry allows profiles to be looked up by name (used by CLI flags and
// DSN profile= parameters).
var registry = map[string]*Profile{"local": Local, "lan100": LAN100, "wan": WAN}

// ProfileByName returns a registered profile; unknown names return Local.
func ProfileByName(name string) *Profile {
	if p, ok := registry[name]; ok {
		return p
	}
	return Local
}
