package histogram

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gridrdb/internal/sqlengine"
)

func TestFillAndStats(t *testing.T) {
	h, err := New("e_tot", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1.5, 1.6, 9.99, -1, 10, 12} {
		h.Fill(x)
	}
	if h.Entries() != 7 {
		t.Errorf("entries = %d", h.Entries())
	}
	u, o := h.underflow, h.overflow
	if u != 1 || o != 2 {
		t.Errorf("under/over = %d/%d", u, o)
	}
	if h.Bins[0] != 1 || h.Bins[1] != 2 || h.Bins[9] != 1 {
		t.Errorf("bins = %v", h.Bins)
	}
	wantMean := (0.5 + 1.5 + 1.6 + 9.99 - 1 + 10 + 12) / 7
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Errorf("mean = %g, want %g", h.Mean(), wantMean)
	}
	if h.StdDev() <= 0 {
		t.Errorf("stddev = %g", h.StdDev())
	}
}

func TestBadConstruction(t *testing.T) {
	if _, err := New("x", 0, 0, 1); err == nil {
		t.Error("0 bins accepted")
	}
	if _, err := New("x", 10, 5, 5); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := New("x", 10, 7, 2); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestFillColumn(t *testing.T) {
	rs := &sqlengine.ResultSet{
		Columns: []string{"id", "e_tot"},
		Rows: []sqlengine.Row{
			{sqlengine.NewInt(1), sqlengine.NewFloat(2.5)},
			{sqlengine.NewInt(2), sqlengine.Null()},
			{sqlengine.NewInt(3), sqlengine.NewFloat(7.5)},
		},
	}
	h, _ := New("e", 10, 0, 10)
	n, err := h.FillColumn(rs, "E_TOT") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("filled %d, want 2 (NULL skipped)", n)
	}
	if _, err := h.FillColumn(rs, "nosuch"); err == nil {
		t.Error("missing column accepted")
	}
}

func TestRender(t *testing.T) {
	h, _ := New("demo", 4, 0, 4)
	for i := 0; i < 8; i++ {
		h.Fill(float64(i % 4))
	}
	out := h.Render(20)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "entries=8") {
		t.Errorf("render:\n%s", out)
	}
	if strings.Count(out, "\n") < 5 {
		t.Errorf("expected 4 bin lines:\n%s", out)
	}
	// Rendering with default width works and shows hashes.
	if !strings.Contains(h.Render(0), "#") {
		t.Error("no bars rendered")
	}
}

// Property: total accounting — entries = in-range + underflow + overflow.
func TestAccountingProperty(t *testing.T) {
	f := func(xs []float64) bool {
		h, _ := New("p", 8, -5, 5)
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Fill(x)
		}
		var inRange int64
		for _, b := range h.Bins {
			inRange += b
		}
		u, o := h.underflow, h.overflow
		return inRange+u+o == h.Entries()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
