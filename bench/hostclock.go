package main

// The benchmark runs in a 2-vCPU VM whose host is shared: for seconds to
// minutes at a time the hypervisor deschedules the guest's busy vCPUs
// ("steal" in /proc/stat), and everything — set-up, throughput, every
// latency — slows by up to several times. Those episodes say nothing
// about the program, so the benchmark watches the steal counter and
// (a) computes the window's metrics over the slices of the window in
// which nothing was stolen, and (b) reports set-up time net of stolen
// time. With no steal (or no /proc/stat) both reduce to plain wall-clock
// measurement.

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostSample is one reading of the VM-wide CPU counters, in USER_HZ
// ticks (10 ms).
type hostSample struct {
	at    time.Time
	busy  int64 // user+nice+system+irq+softirq
	steal int64
}

// readHost parses the aggregate "cpu" line of /proc/stat. Where it is
// missing the counters stay zero and nothing is ever judged stolen.
func readHost() hostSample {
	s := hostSample{at: time.Now()}
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return s
	}
	n := func(i int) int64 { v, _ := strconv.ParseInt(f[i], 10, 64); return v }
	s.busy = n(1) + n(2) + n(3) + n(6) + n(7)
	s.steal = n(8)
	return s
}

// slice is the interval between two consecutive host samples.
type slice struct {
	from, to    time.Time
	busy, steal int64 // ticks within the slice
}

// stolen is the share of the slice's wanted CPU time the host withheld.
func (s slice) stolen() float64 {
	if s.busy+s.steal == 0 {
		return 0
	}
	return float64(s.steal) / float64(s.busy+s.steal)
}

// clean reports whether the slice ran undisturbed: at most one stolen
// tick (the counter's resolution) or 1% of its CPU time.
func (s slice) clean() bool {
	return s.steal <= 1 || s.stolen() <= 0.01
}

// hostClock samples the host counters on a fixed period from its start
// until stop.
type hostClock struct {
	mu      sync.Mutex
	samples []hostSample
	quit    chan struct{}
	done    chan struct{}
}

// slicePeriod is the sampling period: long enough that a slice holds 200
// ticks (so 1% is resolvable) and several ops of the slowest workload,
// short enough that a 20 s window has 20 of them.
const slicePeriod = time.Second

func startHostClock(first hostSample) *hostClock {
	h := &hostClock{samples: []hostSample{first}, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(slicePeriod)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.mark()
			case <-h.quit:
				return
			}
		}
	}()
	return h
}

// mark takes a sample now (the window's edges are marked explicitly, so
// slices never straddle them) and returns its time.
func (h *hostClock) mark() time.Time {
	s := readHost()
	h.mu.Lock()
	h.samples = append(h.samples, s)
	h.mu.Unlock()
	return s.at
}

// stop ends the sampling goroutine and waits for it.
func (h *hostClock) stop() {
	close(h.quit)
	<-h.done
}

// slices returns the sampled intervals lying within [from, to]; both must
// be times mark returned (or the first sample's).
func (h *hostClock) slices(from, to time.Time) []slice {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []slice
	for i := 1; i < len(h.samples); i++ {
		a, b := h.samples[i-1], h.samples[i]
		if a.at.Before(from) || b.at.After(to) {
			continue
		}
		out = append(out, slice{from: a.at, to: b.at, busy: b.busy - a.busy, steal: b.steal - a.steal})
	}
	return out
}

// unstolen is the wall time of the slices net of their stolen share: the
// time the guest was actually given to run them.
func unstolen(slices []slice) time.Duration {
	var d time.Duration
	for _, s := range slices {
		d += time.Duration(float64(s.to.Sub(s.from)) * (1 - s.stolen()))
	}
	return d
}
