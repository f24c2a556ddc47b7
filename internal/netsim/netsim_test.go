package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAccounting(t *testing.T) {
	c := &Clock{}
	p := &Profile{Name: "t", RTT: time.Millisecond, ConnectCost: 5 * time.Millisecond, BytesPerSecond: 1000}
	c.Connect(p)
	if got := c.Simulated(); got != 5*time.Millisecond {
		t.Fatalf("connect = %v", got)
	}
	c.RoundTrip(p, 0)
	if got := c.Simulated(); got != 6*time.Millisecond {
		t.Fatalf("rtt = %v", got)
	}
	// 1000 bytes at 1000 B/s is one second of transfer.
	c.simulated.Store(0)
	c.Transfer(p, 1000)
	if got := c.Simulated(); got != time.Second {
		t.Fatalf("transfer = %v", got)
	}
	c.simulated.Store(0)
	if c.Simulated() != 0 {
		t.Fatal("reset failed")
	}
}

func TestZeroProfileChargesNothing(t *testing.T) {
	c := &Clock{}
	c.Connect(Local)
	c.RoundTrip(Local, 1<<20)
	c.Transfer(Local, 1<<20)
	if c.Simulated() != 0 {
		t.Fatalf("local profile charged %v", c.Simulated())
	}
}

// Property: simulated time is monotone non-decreasing in payload size.
func TestTransferMonotone(t *testing.T) {
	p := &Profile{Name: "m", BytesPerSecond: 12_500_000}
	f := func(a, b uint32) bool {
		ca, cb := &Clock{}, &Clock{}
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		ca.Transfer(p, lo)
		cb.Transfer(p, hi)
		return ca.Simulated() <= cb.Simulated()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfileRegistry(t *testing.T) {
	if ProfileByName("lan100") != LAN100 {
		t.Error("lan100 lookup failed")
	}
	if ProfileByName("unknown") != Local {
		t.Error("unknown should fall back to Local")
	}
}

func TestConcurrentCharging(t *testing.T) {
	c := &Clock{}
	p := &Profile{Name: "t", RTT: time.Microsecond}
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.RoundTrip(p, 0)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := c.Simulated(); got != 8*1000*time.Microsecond {
		t.Fatalf("accumulated %v, want 8ms", got)
	}
}
