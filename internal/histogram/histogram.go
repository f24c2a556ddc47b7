// Package histogram provides the analysis-side visualization the paper's
// Java Analysis Studio (JAS) plug-in supplied: 1-D histograms filled from
// query results and rendered as text, so analysis examples can "submit
// queries for accessing the data and visualize the results as histograms"
// without a GUI toolkit.
package histogram

import (
	"fmt"
	"math"
	"strings"

	"gridrdb/internal/sqlengine"
)

// Hist1D is a fixed-binning one-dimensional histogram.
type Hist1D struct {
	Title      string
	Bins       []int64
	Lo, Hi     float64
	width      float64
	entries    int64
	sum, sumSq float64
	underflow  int64
	overflow   int64
}

// New creates a histogram with nbins equal-width bins over [lo, hi).
func New(title string, nbins int, lo, hi float64) (*Hist1D, error) {
	if nbins <= 0 {
		return nil, fmt.Errorf("histogram: nbins must be positive, got %d", nbins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("histogram: invalid range [%g, %g)", lo, hi)
	}
	return &Hist1D{
		Title: title,
		Bins:  make([]int64, nbins),
		Lo:    lo, Hi: hi,
		width: (hi - lo) / float64(nbins),
	}, nil
}

// Fill adds one sample.
func (h *Hist1D) Fill(x float64) {
	h.entries++
	h.sum += x
	h.sumSq += x * x
	switch {
	case x < h.Lo:
		h.underflow++
	case x >= h.Hi:
		h.overflow++
	default:
		idx := int((x - h.Lo) / h.width)
		if idx >= len(h.Bins) { // floating-point edge
			idx = len(h.Bins) - 1
		}
		h.Bins[idx]++
	}
}

// FillColumn fills from one column of a query result, skipping NULLs and
// non-numeric values. It returns the number of samples filled.
func (h *Hist1D) FillColumn(rs *sqlengine.ResultSet, column string) (int, error) {
	idx := -1
	for i, c := range rs.Columns {
		if strings.EqualFold(c, column) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("histogram: result has no column %q (have %v)", column, rs.Columns)
	}
	n := 0
	for _, row := range rs.Rows {
		v := row[idx]
		if v.IsNull() {
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			continue
		}
		h.Fill(f)
		n++
	}
	return n, nil
}

// Entries returns the total number of Fill calls.
func (h *Hist1D) Entries() int64 { return h.entries }

// Mean returns the sample mean of all filled values.
func (h *Hist1D) Mean() float64 {
	if h.entries == 0 {
		return 0
	}
	return h.sum / float64(h.entries)
}

// StdDev returns the sample standard deviation.
func (h *Hist1D) StdDev() float64 {
	if h.entries < 2 {
		return 0
	}
	n := float64(h.entries)
	variance := (h.sumSq - h.sum*h.sum/n) / (n - 1)
	if variance < 0 {
		return 0
	}
	return math.Sqrt(variance)
}

// MaxBin returns the largest bin count.
func (h *Hist1D) MaxBin() int64 {
	var max int64
	for _, b := range h.Bins {
		if b > max {
			max = b
		}
	}
	return max
}

// Render draws the histogram as fixed-width text, HBOOK style.
func (h *Hist1D) Render(barWidth int) string {
	if barWidth <= 0 {
		barWidth = 40
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (entries=%d mean=%.3f rms=%.3f)\n", h.Title, h.entries, h.Mean(), h.StdDev())
	max := h.MaxBin()
	for i, b := range h.Bins {
		lo := h.Lo + float64(i)*h.width
		bar := 0
		if max > 0 {
			bar = int(float64(b) / float64(max) * float64(barWidth))
		}
		fmt.Fprintf(&sb, "[%10.3f, %10.3f) %8d |%s\n", lo, lo+h.width, b, strings.Repeat("#", bar))
	}
	if h.underflow > 0 || h.overflow > 0 {
		fmt.Fprintf(&sb, "underflow=%d overflow=%d\n", h.underflow, h.overflow)
	}
	return sb.String()
}
