package sqlengine

import (
	"fmt"
	"testing"
)

// TestAggregateInExpressions: an aggregate nested in a function, CASE,
// IS NULL or BETWEEN, or used as an ORDER BY key, is computed per group
// and the rest of its expression evaluated over the result.
func TestAggregateInExpressions(t *testing.T) {
	e := NewEngine("aggexpr", DialectANSI)
	mustExec(t, e, `CREATE TABLE t (id INTEGER, g INTEGER, v DOUBLE)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 1, 1.5), (2, 1, NULL), (3, 2, 4.0)`)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT g, COALESCE(SUM(v), 0) FROM t GROUP BY g", "[[1 1.5] [2 4]]"},
		{"SELECT g, ROUND(AVG(v), 1) FROM t GROUP BY g", "[[1 1.5] [2 4]]"},
		{"SELECT g, CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END FROM t GROUP BY g", "[[1 many] [2 one]]"},
		{"SELECT SUM(v) IS NULL FROM t GROUP BY g", "[[FALSE] [FALSE]]"},
		{"SELECT g FROM t GROUP BY g HAVING COUNT(*) BETWEEN 2 AND 5", "[[1]]"},
		{"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY COUNT(*) DESC", "[[1 2] [2 1]]"},
	} {
		rs, err := e.Query(tc.sql)
		if err != nil {
			t.Errorf("%s: %v", tc.sql, err)
			continue
		}
		if got := fmt.Sprint(rs.Rows); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.sql, got, tc.want)
		}
	}
}
