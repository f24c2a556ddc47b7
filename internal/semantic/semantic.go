// Package semantic implements the paper's last future-work item (§6):
// "the study of how tables from databases can be integrated with respect
// to their semantic similarity." Given the lower-level XSpecs of two
// databases it scores every table pair by a combination of name similarity
// (token-aware normalized edit distance) and structural similarity
// (Jaccard overlap of column name/kind signatures), proposes matches above
// a threshold, and can rewrite the specs' logical names so that matched
// tables integrate under one dictionary entry — turning, say, EVENTS_T01
// on an Oracle source and tbl_events on a MySQL source into replicas of
// one logical "events" table.
package semantic

import (
	"fmt"
	"sort"
	"strings"

	"gridrdb/internal/xspec"
)

// Match is one proposed table correspondence.
type Match struct {
	LeftTable  string
	RightTable string
	// Score is in [0,1]; 1 means identical name and structure.
	Score float64
	// NameScore and StructScore are the components.
	NameScore   float64
	StructScore float64
	// Columns maps left column names to right column names for columns
	// judged equivalent.
	Columns map[string]string
}

// Options tunes the matcher.
type Options struct {
	// Threshold is the minimum combined score to propose a match.
	Threshold float64
	// NameWeight balances name vs structural similarity (0..1).
	NameWeight float64
}

// DefaultOptions mirror what worked on the LHC-style schemas in the test
// corpus: structure counts more than names (physicists rename tables per
// site; column sets are stable).
func DefaultOptions() Options { return Options{Threshold: 0.5, NameWeight: 0.35} }

// MatchSpecs proposes table matches between two database specs, sorted by
// descending score. Each table appears in at most one proposed match
// (greedy maximum-score assignment).
func MatchSpecs(left, right *xspec.LowerSpec, opt Options) []Match {
	if opt.Threshold <= 0 {
		opt = DefaultOptions()
	}
	var all []Match
	for _, lt := range left.Tables {
		for _, rt := range right.Tables {
			m := scoreTables(lt, rt, opt)
			if m.Score >= opt.Threshold {
				all = append(all, m)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].LeftTable != all[j].LeftTable {
			return all[i].LeftTable < all[j].LeftTable
		}
		return all[i].RightTable < all[j].RightTable
	})
	usedL, usedR := map[string]bool{}, map[string]bool{}
	var out []Match
	for _, m := range all {
		if usedL[m.LeftTable] || usedR[m.RightTable] {
			continue
		}
		usedL[m.LeftTable] = true
		usedR[m.RightTable] = true
		out = append(out, m)
	}
	return out
}

func scoreTables(lt, rt xspec.TableSpec, opt Options) Match {
	m := Match{LeftTable: lt.Name, RightTable: rt.Name}
	m.NameScore = nameSimilarity(lt.Name, rt.Name)
	m.StructScore, m.Columns = structSimilarity(lt, rt)
	w := opt.NameWeight
	m.Score = w*m.NameScore + (1-w)*m.StructScore
	return m
}

// ---- name similarity ----

// normalizeName lower-cases, strips vendor noise prefixes/suffixes and
// splits snake/camel tokens.
func tokens(name string) []string {
	s := strings.ToLower(name)
	for _, junk := range []string{"tbl_", "t_", "dim_", "fact_"} {
		s = strings.TrimPrefix(s, junk)
	}
	// Split snake_case and digits.
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == '_' || r == '-' || r == '.' || (r >= '0' && r <= '9')
	})
	out := fields[:0]
	for _, f := range fields {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// nameSimilarity combines token overlap with edit-distance similarity of
// the joined normalized names.
func nameSimilarity(a, b string) float64 {
	ta, tb := tokens(a), tokens(b)
	ja := jaccardStrings(ta, tb)
	na, nb := strings.Join(ta, ""), strings.Join(tb, "")
	ed := editSimilarity(na, nb)
	if ja > ed {
		return ja
	}
	return ed
}

func jaccardStrings(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	set := map[string]int{}
	for _, s := range a {
		set[s] |= 1
	}
	for _, s := range b {
		set[s] |= 2
	}
	inter, union := 0, 0
	for _, bits := range set {
		union++
		if bits == 3 {
			inter++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// editSimilarity is 1 - levenshtein/maxlen.
func editSimilarity(a, b string) float64 {
	if a == "" && b == "" {
		return 0
	}
	d := levenshtein(a, b)
	max := len(a)
	if len(b) > max {
		max = len(b)
	}
	if max == 0 {
		return 0
	}
	return 1 - float64(d)/float64(max)
}

func levenshtein(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func minInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// ---- structural similarity ----

// structSimilarity matches columns pairwise (name similarity gated by kind
// compatibility) and returns the fraction matched plus the column map.
func structSimilarity(lt, rt xspec.TableSpec) (float64, map[string]string) {
	if len(lt.Columns) == 0 || len(rt.Columns) == 0 {
		return 0, nil
	}
	type cand struct {
		li, ri int
		score  float64
	}
	var cands []cand
	for li, lc := range lt.Columns {
		for ri, rc := range rt.Columns {
			if !kindCompatible(lc.Kind, rc.Kind) {
				continue
			}
			s := nameSimilarity(lc.Name, rc.Name)
			if s >= 0.5 {
				cands = append(cands, cand{li, ri, s})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].li != cands[j].li {
			return cands[i].li < cands[j].li
		}
		return cands[i].ri < cands[j].ri
	})
	usedL, usedR := map[int]bool{}, map[int]bool{}
	cols := map[string]string{}
	for _, c := range cands {
		if usedL[c.li] || usedR[c.ri] {
			continue
		}
		usedL[c.li] = true
		usedR[c.ri] = true
		cols[lt.Columns[c.li].Name] = rt.Columns[c.ri].Name
	}
	denom := len(lt.Columns)
	if len(rt.Columns) > denom {
		denom = len(rt.Columns)
	}
	return float64(len(cols)) / float64(denom), cols
}

// kindCompatible treats the numeric kinds as interchangeable (vendors
// disagree on INTEGER vs NUMBER vs DOUBLE for the same physical quantity).
func kindCompatible(a, b string) bool {
	norm := func(k string) string {
		switch strings.ToUpper(k) {
		case "INTEGER", "DOUBLE", "BOOLEAN":
			return "NUM"
		case "VARCHAR":
			return "STR"
		default:
			return strings.ToUpper(k)
		}
	}
	return norm(a) == norm(b)
}

// Unify rewrites the Logical names of matched tables (and their matched
// columns) in both specs so the dictionary integrates them as replicas of
// one logical table. The logical name chosen is the left table's
// dictionary name (xspec.LogicalName). It returns the logical names
// assigned, keyed by left table.
func Unify(left, right *xspec.LowerSpec, matches []Match) (map[string]string, error) {
	assigned := map[string]string{}
	for _, m := range matches {
		lt := findTable(left, m.LeftTable)
		rt := findTable(right, m.RightTable)
		if lt == nil || rt == nil {
			return nil, fmt.Errorf("semantic: match references unknown table %s/%s", m.LeftTable, m.RightTable)
		}
		lt.Logical = xspec.LogicalName(lt.Logical, lt.Name)
		rt.Logical = lt.Logical
		for lcol, rcol := range m.Columns {
			lc := findColumn(lt, lcol)
			rc := findColumn(rt, rcol)
			if lc == nil || rc == nil {
				continue
			}
			lc.Logical = xspec.LogicalName(lc.Logical, lc.Name)
			rc.Logical = lc.Logical
		}
		assigned[m.LeftTable] = lt.Logical
	}
	return assigned, nil
}

func findTable(s *xspec.LowerSpec, name string) *xspec.TableSpec {
	for i := range s.Tables {
		if s.Tables[i].Name == name {
			return &s.Tables[i]
		}
	}
	return nil
}

func findColumn(t *xspec.TableSpec, name string) *xspec.ColumnSpec {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i]
		}
	}
	return nil
}
