package experiments

import (
	"context"
	"fmt"
	"time"

	"gridrdb/internal/netsim"
)

// WANRow compares one query shape across network profiles — the paper's
// §6 plan to "test the system for query distribution on geographically
// distributed databases in order to measure its performance over wide
// area networks".
type WANRow struct {
	Profile     string
	Query       string
	ResponseMS  float64
	Distributed bool
}

// RunWAN measures the local single-table query and the distributed
// two-table query under each profile, building a fresh deployment per
// profile (the link cost is baked into the DSNs).
func RunWAN(profiles []*netsim.Profile, rowsPerTable, repeats int) ([]WANRow, error) {
	if repeats <= 0 {
		repeats = 2
	}
	if rowsPerTable <= 0 {
		rowsPerTable = 2000
	}
	var out []WANRow
	for _, p := range profiles {
		opt := DeployOptions{
			RowsPerTable:      rowsPerTable,
			FillerTablesPerDB: 3,
			Profile:           p,
			SessionPooling:    p != netsim.Local,
		}
		d, err := Deploy(opt)
		if err != nil {
			return nil, fmt.Errorf("wan deploy %s: %w", p.Name, err)
		}
		client := d.Client()
		queries := []struct {
			sql         string
			distributed bool
		}{
			{"SELECT event_id, e_tot FROM ev1 WHERE run = 102 AND event_id < 120", false},
			{"SELECT e.event_id, m.detector FROM ev1 e JOIN meta2 m ON e.run = m.run WHERE m.detector = 'CMS' AND e.event_id < 500", true},
		}
		for _, q := range queries {
			var total time.Duration
			for r := 0; r < repeats; r++ {
				start := time.Now()
				if _, err := client.CallDecodeContext(context.Background(), "dataaccess.query", decodeQueryResult, q.sql); err != nil {
					d.Close()
					return nil, fmt.Errorf("wan %s: %w", p.Name, err)
				}
				total += time.Since(start)
			}
			out = append(out, WANRow{
				Profile:     p.Name,
				Query:       q.sql,
				ResponseMS:  float64(total.Milliseconds()) / float64(repeats),
				Distributed: q.distributed,
			})
		}
		d.Close()
	}
	return out, nil
}
