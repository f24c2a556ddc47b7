package main

import (
	"sort"
	"time"
)

// minKept is the share of the window that is always measured: when fewer
// slices ran undisturbed, the least-stolen of the rest are kept too (and
// the run says so), rather than resting the numbers on a sliver.
const minKept = 0.25

// windowStats are a window's numbers over its kept slices.
type windowStats struct {
	ops, rows int64         // ops that completed in a kept slice, and their rows
	kept      time.Duration // summed length of the kept slices
	latMs     []float64     // reads that ran entirely within kept slices, ascending
	firstMs   []float64     // their time to first row, ascending
	refreshMs []float64     // refreshes likewise, ascending

	slices, keptSlices int
	disturbed          bool    // fewer than minKept of the window ran clean
	stolenPct          float64 // stolen share of the whole window's CPU time
}

// keepSlices marks the slices the metrics are computed over: the clean
// ones, topped up from the least-stolen of the others to minKept of the
// window.
func keepSlices(slices []slice) (keep []bool, disturbed bool) {
	keep = make([]bool, len(slices))
	var total, kept time.Duration
	var rest []int
	for i, s := range slices {
		d := s.to.Sub(s.from)
		total += d
		if s.clean() {
			keep[i] = true
			kept += d
		} else {
			rest = append(rest, i)
		}
	}
	need := time.Duration(minKept * float64(total))
	if kept >= need {
		return keep, false
	}
	sort.Slice(rest, func(a, b int) bool { return slices[rest[a]].stolen() < slices[rest[b]].stolen() })
	for _, i := range rest {
		if kept >= need {
			break
		}
		keep[i] = true
		kept += slices[i].to.Sub(slices[i].from)
	}
	return keep, true
}

// summarize computes a window's numbers from its samples and the host
// slices covering it (contiguous, ascending). Throughput counts the ops
// that completed in kept slices over those slices' length; a latency
// sample counts only if every slice the op touched was kept.
func summarize(samples []sample, slices []slice) windowStats {
	keep, disturbed := keepSlices(slices)
	ws := windowStats{slices: len(slices), disturbed: disturbed}
	var busy, steal int64
	for i, s := range slices {
		busy += s.busy
		steal += s.steal
		if keep[i] {
			ws.keptSlices++
			ws.kept += s.to.Sub(s.from)
		}
	}
	if busy+steal > 0 {
		ws.stolenPct = 100 * float64(steal) / float64(busy+steal)
	}
	// at returns the index of the slice containing t.
	at := func(t time.Time) int {
		i := sort.Search(len(slices), func(i int) bool { return !slices[i].to.Before(t) })
		return min(i, len(slices)-1)
	}
	for _, sm := range samples {
		first, last := at(sm.start), at(sm.end)
		if !keep[last] {
			continue
		}
		ws.ops++
		ws.rows += int64(sm.rows)
		whole := true
		for i := first; i < last; i++ {
			whole = whole && keep[i]
		}
		switch {
		case !whole:
		case sm.refresh:
			ws.refreshMs = append(ws.refreshMs, ms(sm.end.Sub(sm.start)))
		default:
			ws.latMs = append(ws.latMs, ms(sm.end.Sub(sm.start)))
			ws.firstMs = append(ws.firstMs, ms(sm.first))
		}
	}
	sortFloats(ws.latMs, ws.firstMs, ws.refreshMs)
	return ws
}
