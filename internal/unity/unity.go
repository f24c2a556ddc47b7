package unity

import (
	"context"
	"database/sql"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridrdb/internal/obsv"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// ErrUnknownTable is returned when a query references logical tables that
// are neither in the federation's dictionary nor among the peer locations
// the plan was given; it names every such table (in first-appearance
// order), and the data access layer uses it to trigger the RLS lookups.
type ErrUnknownTable struct{ Tables []string }

func (e *ErrUnknownTable) Error() string {
	return fmt.Sprintf("unity: unknown table %s in federation", strings.Join(e.Tables, ", "))
}

// Source is one member database of the federation.
type Source struct {
	Name   string
	Driver string
	URL    string
	Spec   *xspec.LowerSpec

	db       *sql.DB
	inflight atomic.Int64
	// cost is the recorded network-proximity cost in nanoseconds (0 =
	// unknown); see Federation.SetSourceCost.
	cost atomic.Int64
}

// Federation is the Unity-style federated query engine.
type Federation struct {
	mu      sync.RWMutex
	sources map[string]*Source
	dict    *xspec.Dictionary

	// MaxParallel bounds the scatter-gather worker pool: at most this many
	// sub-queries of one query run concurrently. <= 0 selects the default
	// (2 x GOMAXPROCS, capped at 16). The bound keeps a wide federated
	// query from opening one goroutine-plus-connection per mart at once.
	// 1 runs them one after another, as stock Unity does ("does not allow
	// parallel execution of a query on multiple databases").
	MaxParallel int

	// ScratchMaxBytes caps the in-memory footprint of buffering streaming
	// operators (a pipelined hash-join's build side, an ORDER BY buffer):
	// past it the operator spills to temp files instead of growing the
	// heap. 0 selects the sqlengine default (64 MiB); negative disables
	// spilling (unbounded buffering).
	ScratchMaxBytes int64

	// Logger receives structured records for sub-query dispatch (one per
	// decomposed table load, carrying the query id from the context); nil
	// disables them.
	Logger *slog.Logger

	// OpenPeer opens the row stream of one table load whose location is a
	// peer rather than a member database (see PlanQueryAt): peer is the
	// location the plan was given for the table, sqlText the load's
	// sub-query in the ANSI dialect over logical names. The stream is
	// paced by its consumer; bounding a stuck peer is the opener's job.
	OpenPeer func(ctx context.Context, peer, sqlText string) (sqlengine.RowIter, error)

	rr atomic.Int64 // round-robin tiebreaker

	queries    atomic.Int64
	subqueries atomic.Int64
	pushdowns  atomic.Int64
}

// Open builds a federation from an upper-level spec plus the lower-level
// specs it references (keyed by source name).
func Open(upper *xspec.UpperSpec, lowers map[string]*xspec.LowerSpec) (*Federation, error) {
	f := &Federation{sources: make(map[string]*Source)}
	f.rebuildDictLocked()
	for _, ref := range upper.Sources {
		spec, ok := lowers[ref.Name]
		if !ok {
			return nil, fmt.Errorf("unity: no lower-level XSpec for source %q", ref.Name)
		}
		if err := f.AddSource(ref, spec); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// AddSource plugs a database into the federation at runtime (§4.10): it
// opens the connection using the named driver and registers the source's
// tables in the dictionary.
func (f *Federation) AddSource(ref xspec.SourceRef, spec *xspec.LowerSpec) error {
	db, err := sql.Open(ref.Driver, ref.URL)
	if err != nil {
		return fmt.Errorf("unity: open source %q: %w", ref.Name, err)
	}
	if err := db.Ping(); err != nil {
		db.Close()
		return fmt.Errorf("unity: connect source %q: %w", ref.Name, err)
	}
	// A "pooling=session" DSN hint disables connection reuse, recreating
	// the 2005-era JDBC behaviour the paper measured: every sub-query pays
	// the full connect-and-authenticate cost. The POOL-RAL path keeps its
	// initialized handles either way, matching §4.7.
	if strings.Contains(ref.URL, "pooling=session") {
		db.SetMaxIdleConns(0)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.sources[ref.Name]; dup {
		db.Close()
		return fmt.Errorf("unity: source %q already registered", ref.Name)
	}
	f.sources[ref.Name] = &Source{Name: ref.Name, Driver: ref.Driver, URL: ref.URL, Spec: spec, db: db}
	f.rebuildDictLocked()
	return nil
}

// RemoveSource drops a database from the federation.
func (f *Federation) RemoveSource(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.sources[name]
	if !ok {
		return fmt.Errorf("unity: no source %q", name)
	}
	s.db.Close()
	delete(f.sources, name)
	f.rebuildDictLocked()
	return nil
}

// ReplaceSpec installs a regenerated lower spec for a source (used by the
// schema-change tracker, §4.9).
func (f *Federation) ReplaceSpec(name string, spec *xspec.LowerSpec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.sources[name]
	if !ok {
		return fmt.Errorf("unity: no source %q", name)
	}
	s.Spec = spec
	f.rebuildDictLocked()
	return nil
}

func (f *Federation) rebuildDictLocked() {
	specs := make([]*xspec.LowerSpec, 0, len(f.sources))
	for _, s := range f.sources {
		specs = append(specs, s.Spec)
	}
	f.dict = xspec.BuildDictionary(specs...)
}

// Dictionary returns the current logical data dictionary.
func (f *Federation) Dictionary() *xspec.Dictionary {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.dict
}

// Sources lists registered source names.
func (f *Federation) Sources() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.sources))
	for n := range f.sources {
		out = append(out, n)
	}
	return out
}

// Stats reports cumulative counters: total queries, sub-queries issued,
// and whole-query pushdowns.
func (f *Federation) Stats() (queries, subqueries, pushdowns int64) {
	return f.queries.Load(), f.subqueries.Load(), f.pushdowns.Load()
}

// Close closes all source connections.
func (f *Federation) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for _, s := range f.sources {
		if err := s.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	f.sources = map[string]*Source{}
	f.rebuildDictLocked()
	return first
}

// ---- planning ----

// SubQuery is one planned per-database query.
type SubQuery struct {
	Source string
	Table  string // logical table this sub-query feeds ("" for pushdown)
	SQL    string
	// Columns are the logical columns a decomposed load selects, in spec
	// order: those the statement reads (see statementReads). Nil for a
	// pushdown and for a SELECT * (a peer table planned without columns).
	Columns []string
}

// Plan describes how a federated query will execute.
type Plan struct {
	// Pushdown is set when the whole query runs on one database.
	Pushdown bool
	// Distributed reports whether the query touches more than one
	// database (the "Query Distributed" column of Table 1).
	Distributed bool
	// Tables are the logical tables referenced.
	Tables []string
	// Subs are the sub-queries to run.
	Subs []SubQuery
	// NeedColumns lists the decomposed plan's tables whose columns the
	// operators need — for a star, or for a join key only the columns
	// attribute — and the plan was not given (a peer table planned without
	// PeerTable.Columns, whose load is SELECT *). A plan with any cannot
	// execute; plan the query again with their columns. A table whose
	// columns are known loads only those the statement reads.
	NeedColumns []string
	sel         *sqlengine.SelectStmt
	// loads are the decomposed path's per-table loads.
	loads []tableLoad
	// pushSource is the chosen source for pushdown plans, and names maps
	// the statement's names to its physical ones there.
	pushSource string
	names      *nameMapper

	// stream is the decomposed plan's operator pipeline (see planStream),
	// nil while NeedColumns is not empty; streamOp labels it for explain
	// output.
	stream   *sqlengine.StreamPlan
	streamOp string
}

type tableLoad struct {
	logical string
	// source is the member database the load runs on — or, when peer is
	// set, the peer location it is opened from through OpenPeer.
	source string
	peer   bool
	sql    string
	loc    xspec.TableLocation
	// cols are the logical columns the load selects, which is the layout
	// of its rows: the spec columns the statement reads. Nil when the spec
	// has none (the load is SELECT * and the layout known only at run time).
	cols []string
}

// loadFor finds the decomposed load feeding a logical table (nil if the
// plan has none).
func (p *Plan) loadFor(logical string) *tableLoad {
	for i := range p.loads {
		if strings.EqualFold(p.loads[i].logical, logical) {
			return &p.loads[i]
		}
	}
	return nil
}

// tableUse records one reference to a logical table in the query.
type tableUse struct {
	ref   sqlengine.TableRef
	where sqlengine.Expr        // the WHERE of the scope the ref appears in
	sel   *sqlengine.SelectStmt // that scope
}

// collectTables walks a SELECT (including joins, IN/EXISTS subqueries and
// UNION branches) gathering every table reference with its scope's WHERE.
// The null-supplying side of an outer join — the right table of a LEFT
// JOIN, everything left of a RIGHT JOIN — gets no WHERE: filtering it
// before the join turns the rows it drops into unmatched (NULL-padded)
// ones, which the WHERE then sees as a different value (the anti-join
// idiom "r.x IS NULL" would match every row). A subquery's tables follow
// its scope's, in the order sqlengine.Subqueries lists the subqueries.
func collectTables(sel *sqlengine.SelectStmt, out *[]tableUse) {
	scope := len(*out)
	for _, tr := range sel.From {
		*out = append(*out, tableUse{ref: tr, where: sel.Where, sel: sel})
	}
	for _, jc := range sel.Joins {
		use := tableUse{ref: jc.Table, where: sel.Where, sel: sel}
		switch jc.Kind {
		case sqlengine.JoinLeft:
			use.where = nil
		case sqlengine.JoinRight:
			for i := scope; i < len(*out); i++ {
				(*out)[i].where = nil
			}
		}
		*out = append(*out, use)
	}
	for _, sub := range sqlengine.Subqueries(sel) {
		collectTables(sub, out)
	}
	if sel.Union != nil {
		collectTables(sel.Union, out)
	}
}

// PlanQuery parses and plans a federated query without executing it.
func (f *Federation) PlanQuery(sqlText string) (*Plan, error) {
	return f.PlanQueryAt(sqlText, nil)
}

// PeerTable locates a table no member database hosts: the peer that
// serves it and, when the caller knows them, its logical column names.
type PeerTable struct {
	Location string
	Columns  []string
}

// PlanQueryAt is PlanQuery for a query that may also reference tables no
// member database hosts: peers maps each such logical table to where it
// is (the data access layer passes the peer server the RLS named). A peer
// table is one more load of the decomposed plan, in the ANSI dialect over
// logical names, opened through OpenPeer — so the query is never a
// whole-query pushdown. With Columns it is planned like a member table
// whose spec has no row count: its sub-query selects those of them the
// statement reads and takes the WHERE conjuncts they attribute to it
// alone (see pushableConjuncts). Without them it is SELECT *
// with only the alias-qualified conjuncts pushed, and a shape that needs
// its columns leaves the table in Plan.NeedColumns. A table in the
// dictionary is planned from the dictionary, whatever peers says.
func (f *Federation) PlanQueryAt(sqlText string, peers map[string]PeerTable) (*Plan, error) {
	sel, err := parseFederated(sqlText)
	if err != nil {
		return nil, err
	}
	return f.plan(sel, peers)
}

func parseFederated(sqlText string) (*sqlengine.SelectStmt, error) {
	st, err := sqlengine.NewParser(sqlengine.DialectANSI).ParseStatement(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlengine.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("unity: only SELECT statements are supported, got %T", st)
	}
	return sel, nil
}

func (f *Federation) plan(sel *sqlengine.SelectStmt, peers map[string]PeerTable) (*Plan, error) {
	f.mu.RLock()
	dict := f.dict
	f.mu.RUnlock()

	var uses []tableUse
	collectTables(sel, &uses)
	if len(uses) == 0 {
		return nil, fmt.Errorf("unity: query references no tables")
	}

	plan := &Plan{sel: sel}
	seen := map[string]bool{}
	var unknown []string
	var common map[string]bool // databases hosting every table so far
	for _, u := range uses {
		logical := u.ref.Name
		locs := dict.Lookup(logical)
		if !seen[logical] {
			seen[logical] = true
			plan.Tables = append(plan.Tables, logical)
			if _, ok := peers[logical]; len(locs) == 0 && !ok {
				unknown = append(unknown, logical)
			}
		}
		// A peer table has no hosting database, which rules the pushdown out.
		hosts := map[string]bool{}
		for _, l := range locs {
			hosts[l.Database] = true
		}
		if common == nil {
			common = hosts
		} else {
			for db := range common {
				if !hosts[db] {
					delete(common, db)
				}
			}
		}
	}

	if len(unknown) > 0 {
		return nil, &ErrUnknownTable{Tables: unknown}
	}

	if len(common) > 0 {
		// Whole-query pushdown to one database.
		src := f.pickSource(keys(common))
		m := &nameMapper{}
		for _, u := range uses {
			locs := dict.Lookup(u.ref.Name)
			m.add(u.ref, &locs[slices.IndexFunc(locs, func(l xspec.TableLocation) bool { return l.Database == src })])
		}
		sqlText, err := renderPushdown(f.dialectOf(src), sel, m)
		if err == nil {
			plan.Pushdown = true
			plan.pushSource, plan.names = src, m
			plan.Subs = []SubQuery{{Source: src, SQL: sqlText}}
			return plan, nil
		}
		// Rendering fails for dialect-inexpressible queries (e.g. OFFSET
		// on MS-SQL) and for a column name the source would resolve
		// otherwise (physColumn); fall through to the decomposed path.
	}

	// Decomposed path: one load per logical table.
	plan.Distributed = true
	refCount := map[string]int{}
	for _, u := range uses {
		refCount[u.ref.Name]++
	}
	for _, logical := range plan.Tables {
		var src string
		var loc xspec.TableLocation
		locs := dict.Lookup(logical)
		peer := len(locs) == 0
		if peer {
			src, loc = peers[logical].Location, peerLocation(logical, peers[logical].Columns)
		} else {
			dbs := make([]string, len(locs))
			byDB := map[string]xspec.TableLocation{}
			for i, l := range locs {
				dbs[i] = l.Database
				byDB[l.Database] = l
			}
			src = f.pickSource(dbs)
			loc = byDB[src]
		}
		plan.loads = append(plan.loads, tableLoad{logical: logical, source: src, peer: peer, loc: loc})
	}
	reads := statementReads(sel)
	for i := range plan.loads {
		ld := &plan.loads[i]
		ld.cols = reads.columns(ld, uses)
		// Find the (single) use for predicate pushdown; tables referenced
		// more than once load unfiltered.
		var use *tableUse
		if refCount[ld.logical] == 1 {
			for i := range uses {
				if uses[i].ref.Name == ld.logical {
					use = &uses[i]
					break
				}
			}
		}
		var err error
		if ld.sql, err = f.tableSubQuery(plan, ld, use); err != nil {
			return nil, err
		}
		plan.Subs = append(plan.Subs, SubQuery{Source: ld.source, Table: ld.logical, SQL: ld.sql, Columns: ld.cols})
	}
	f.planStream(plan)
	return plan, nil
}

// peerLocation is a peer table's stand-in for a dictionary entry: a spec
// of its logical name and the columns the caller gave (none: the
// sub-query is SELECT * and the operators learn the layout at run time).
func peerLocation(logical string, cols []string) xspec.TableLocation {
	loc := xspec.TableLocation{Table: logical, Spec: xspec.TableSpec{Logical: logical}, ColByLogical: map[string]string{}}
	for _, c := range cols {
		loc.Spec.Columns = append(loc.Spec.Columns, xspec.ColumnSpec{Name: c, Logical: c})
		loc.ColByLogical[strings.ToLower(c)] = c
	}
	return loc
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SetSourceCost records a network-proximity cost for a source (typically a
// measured round-trip time). Replica selection prefers the cheapest
// source; zero (the default) means "no information". This implements the
// paper's §6 future-work item: "a system that could decide the closest
// available database (in terms of network connectivity) from a set of
// replicated databases".
func (f *Federation) SetSourceCost(name string, cost time.Duration) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.sources[name]
	if !ok {
		return fmt.Errorf("unity: no source %q", name)
	}
	s.cost.Store(int64(cost))
	return nil
}

// pickSource implements replica selection: proximity first (lowest
// recorded cost, when any candidate has one), then load distribution
// (fewest in-flight sub-queries), breaking remaining ties round-robin.
func (f *Federation) pickSource(candidates []string) string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(candidates) == 1 {
		return candidates[0]
	}
	// Proximity pass: if any candidate has a recorded cost, restrict the
	// choice to the cheapest cost tier.
	minCost := int64(1 << 62)
	anyCost := false
	for _, name := range candidates {
		if s, ok := f.sources[name]; ok {
			if c := s.cost.Load(); c > 0 {
				anyCost = true
				if c < minCost {
					minCost = c
				}
			}
		}
	}
	best := ""
	bestLoad := int64(1 << 62)
	start := int(f.rr.Add(1)) % len(candidates)
	for i := 0; i < len(candidates); i++ {
		name := candidates[(start+i)%len(candidates)]
		s, ok := f.sources[name]
		if !ok {
			continue
		}
		if anyCost {
			c := s.cost.Load()
			// Sources without measurements count as the worst tier.
			if c == 0 || c > minCost {
				continue
			}
		}
		if load := s.inflight.Load(); load < bestLoad {
			best, bestLoad = name, load
		}
	}
	if best == "" {
		// All candidates filtered (e.g. none measured): fall back to load.
		for i := 0; i < len(candidates); i++ {
			name := candidates[(start+i)%len(candidates)]
			s, ok := f.sources[name]
			if !ok {
				continue
			}
			if load := s.inflight.Load(); load < bestLoad {
				best, bestLoad = name, load
			}
		}
	}
	return best
}

func (f *Federation) dialectOf(source string) *sqlengine.Dialect {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.sources[source]
	if !ok {
		return sqlengine.DialectANSI
	}
	d, err := sqlengine.DialectByName(s.Spec.Dialect)
	if err != nil {
		return sqlengine.DialectANSI
	}
	return d
}

// tableSubQuery renders a load's sub-query: the columns the statement
// reads of its table (ld.cols; SELECT * when they are unknown), plus the
// conjuncts of the scope's WHERE only that table answers pushed down.
func (f *Federation) tableSubQuery(p *Plan, ld *tableLoad, use *tableUse) (string, error) {
	sub := &sqlengine.SelectStmt{Limit: -1}
	alias := ""
	if use != nil {
		alias = use.ref.Alias
	}
	sub.From = []sqlengine.TableRef{{Name: ld.logical, Alias: alias}}
	for _, c := range ld.cols {
		sub.Items = append(sub.Items, sqlengine.SelectItem{Expr: &sqlengine.ColumnRef{Column: c}})
	}
	if len(sub.Items) == 0 {
		sub.Items = []sqlengine.SelectItem{{Star: true}}
	}
	if use != nil && use.where != nil {
		for _, c := range p.pushableConjuncts(ld, use) {
			if sub.Where == nil {
				sub.Where = c
			} else {
				sub.Where = &sqlengine.BinaryExpr{Op: "AND", L: sub.Where, R: c}
			}
		}
	}
	m := &nameMapper{}
	m.add(sub.From[0], &ld.loc)
	return RenderSelect(f.dialectOf(ld.source), sub, m)
}

// splitConjuncts flattens top-level ANDs.
func splitConjuncts(e sqlengine.Expr) []sqlengine.Expr {
	if be, ok := e.(*sqlengine.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []sqlengine.Expr{e}
}

// pushableConjuncts returns the conjuncts of use's WHERE that ld, the
// load of its table, can run remotely: those with no parameter or
// subquery whose every column reference is the table's. A qualified
// reference is the table's when its qualifier is; an unqualified one when
// the table has the column. A scope whose filters name a column
// ambiguously (ambiguousFilter) pushes nothing.
func (p *Plan) pushableConjuncts(ld *tableLoad, use *tableUse) []sqlengine.Expr {
	if p.ambiguousFilter(use.sel) {
		return nil
	}
	qualifier := use.ref.Alias
	if qualifier == "" {
		qualifier = use.ref.Name
	}
	own := func(c *sqlengine.ColumnRef) bool {
		if c.Table != "" {
			return strings.EqualFold(c.Table, qualifier)
		}
		_, ok := ld.loc.ColByLogical[strings.ToLower(c.Column)]
		return ok
	}
	var out []sqlengine.Expr
	for _, c := range splitConjuncts(use.where) {
		if exprPushable(c, own) {
			out = append(out, c)
		}
	}
	return out
}

// ambiguousFilter reports whether the ON conditions or the WHERE of sel
// name a column that two tables of its scope have or, their columns
// unknown, may have (mayName), subqueries included. Such a name is
// ambiguous: the statement raises that on the rows that reach it, and a
// conjunct filtered below the joins would hide some of those rows, or
// all, and the error with them. The ON conditions see every joined row
// before the WHERE filters it.
func (p *Plan) ambiguousFilter(sel *sqlengine.SelectStmt) bool {
	var names []*sqlengine.ColumnRef
	for _, jc := range sel.Joins {
		p.freeNames(jc.On, &names)
	}
	p.freeNames(sel.Where, &names)
	scope := sqlengine.BranchTables(sel)
	return slices.ContainsFunc(names, func(c *sqlengine.ColumnRef) bool { return p.naming(c, scope) >= 2 })
}

// freeNames appends to out the unqualified column references of e that
// the scope around e resolves: in an IN or EXISTS subquery, those that no
// table of the subquery's scope has, or that two of them may have.
func (p *Plan) freeNames(e sqlengine.Expr, out *[]*sqlengine.ColumnRef) {
	sqlengine.WalkExpr(e, func(e sqlengine.Expr) bool {
		var sub *sqlengine.SelectStmt
		switch x := e.(type) {
		case *sqlengine.ColumnRef:
			if x.Table == "" {
				*out = append(*out, x)
			}
		case *sqlengine.InExpr:
			sub = x.Sub
		case *sqlengine.ExistsExpr:
			sub = x.Sub
		}
		for s := sub; s != nil; s = s.Union {
			var inner []*sqlengine.ColumnRef
			for _, it := range s.Items {
				p.freeNames(it.Expr, &inner)
			}
			for _, jc := range s.Joins {
				p.freeNames(jc.On, &inner)
			}
			for _, e := range append([]sqlengine.Expr{s.Where, s.Having}, s.GroupBy...) {
				p.freeNames(e, &inner)
			}
			for _, o := range s.OrderBy {
				p.freeNames(o.Expr, &inner)
			}
			scope := sqlengine.BranchTables(s)
			for _, c := range inner {
				if p.naming(c, scope) != 1 {
					*out = append(*out, c)
				}
			}
		}
		return true
	})
}

// naming counts the tables of scope that may have the column an
// unqualified reference names.
func (p *Plan) naming(c *sqlengine.ColumnRef, scope []sqlengine.TableRef) int {
	n := 0
	for _, tr := range scope {
		if mayName(c, nil, p.loadFor(tr.Name).loc) {
			n++
		}
	}
	return n
}

func exprPushable(e sqlengine.Expr, own func(*sqlengine.ColumnRef) bool) bool {
	return sqlengine.WalkExpr(e, func(e sqlengine.Expr) bool {
		switch x := e.(type) {
		case *sqlengine.Literal, *sqlengine.BinaryExpr, *sqlengine.UnaryExpr, *sqlengine.IsNullExpr, *sqlengine.BetweenExpr:
			return true
		case *sqlengine.ColumnRef:
			return x.Column != "rownum" && own(x)
		case *sqlengine.InExpr:
			return x.Sub == nil
		case *sqlengine.FuncCall:
			// Only portable scalar functions are pushed.
			switch x.Name {
			case "COALESCE", "LENGTH", "UPPER", "LOWER", "ABS", "ROUND", "SUBSTR", "TRIM", "MOD":
				return !x.Star && !x.Distinct
			}
		}
		return false // parameters, CASE, EXISTS, aggregates
	})
}

// ---- execution ----

// Dependencies lists the (source, logical table) pairs a plan reads from;
// the data access layer records them as the cache-invalidation
// fingerprint of the query's result.
func (p *Plan) Dependencies() [][2]string {
	var out [][2]string
	if p.Pushdown {
		for _, t := range p.Tables {
			out = append(out, [2]string{p.pushSource, t})
		}
		return out
	}
	for _, ld := range p.loads {
		out = append(out, [2]string{ld.source, ld.logical})
	}
	return out
}

// PlanExplain is a plan's self-description for system.explain and the
// slow-query log: the routing shape, the chosen member databases, and the
// per-table sub-queries — everything the private plan fields encode,
// without the execution machinery.
type PlanExplain struct {
	// Pushdown reports whole-query execution on one member database
	// (Source); otherwise the plan decomposes into per-table loads.
	Pushdown    bool
	Distributed bool
	// Source is the chosen database for pushdown plans ("" otherwise).
	Source string
	Tables []string
	// Subs are the sub-queries that would run, with their chosen sources.
	Subs []SubQuery
	// Operator names the execution shape: "pushdown" or a pipelined
	// operator label ("pipelined hash-join(build=right)", "pipelined
	// nested-loop", ...); "" for a plan that cannot run until it is given
	// the columns its NeedColumns lists.
	Operator string
}

// Explain describes the plan without executing it.
func (p *Plan) Explain() PlanExplain {
	op := p.streamOp
	if p.Pushdown {
		op = "pushdown"
	}
	return PlanExplain{
		Pushdown:    p.Pushdown,
		Distributed: p.Distributed,
		Source:      p.pushSource,
		Tables:      p.Tables,
		Subs:        p.Subs,
		Operator:    op,
	}
}

// logSubquery emits one sub-query dispatch record (no-op without a
// logger); the query id rides in from ctx.
func (f *Federation) logSubquery(ctx context.Context, source, table string) {
	lg := f.Logger
	if lg == nil || !lg.Enabled(ctx, slog.LevelDebug) {
		return
	}
	lg.LogAttrs(ctx, slog.LevelDebug, "unity subquery",
		slog.String("query_id", obsv.QueryID(ctx)),
		slog.String("source", source),
		slog.String("table", table))
}

// QueryContext plans and executes a federated query, returning the merged
// result.
func (f *Federation) QueryContext(ctx context.Context, sqlText string, params ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	plan, err := f.PlanQuery(sqlText)
	if err != nil {
		return nil, err
	}
	return f.ExecuteContext(ctx, plan, params...)
}

// maxParallel resolves the worker-pool width for n pending sub-queries.
func (f *Federation) maxParallel(n int) int {
	w := f.MaxParallel
	if w <= 0 {
		w = 2 * runtime.GOMAXPROCS(0)
		if w > 16 {
			w = 16
		}
	}
	if w > n {
		w = n
	}
	return w
}

// scatter runs fn(ctx, i) for every i in [0, n): over the bounded worker
// pool, so latency is the max over sources rather than the sum, or one
// after another when the pool is one wide. The first error cancels
// the context handed to the calls still running or pending and is
// returned; that context also ends when scatter returns, so anything
// meant to outlive it must be opened under the caller's own context.
func (f *Federation) scatter(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	width := f.maxParallel(n)
	if width < 2 {
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // a sibling failed; drain without executing
				}
				if err := fn(ctx, i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr == nil {
		// The caller's context was cancelled before any worker ran its job
		// (the drain path records no error of its own).
		return ctx.Err()
	}
	return firstErr
}

// ExecuteContext runs a previously produced plan materialized: the
// drained ExecuteStreamOp stream.
func (f *Federation) ExecuteContext(ctx context.Context, plan *Plan, params ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	it, _, err := f.ExecuteStreamOp(ctx, plan, params...)
	if err != nil {
		return nil, err
	}
	return sqlengine.Drain(it)
}

// QueryStreamContext plans a federated query and executes it as a stream
// (see ExecuteStreamOp: pushdown or pipelined operators). The plan is
// returned alongside the iterator so callers can inspect routing and
// record cache dependencies.
func (f *Federation) QueryStreamContext(ctx context.Context, sqlText string, params ...sqlengine.Value) (sqlengine.RowIter, *Plan, error) {
	plan, err := f.PlanQuery(sqlText)
	if err != nil {
		return nil, nil, err
	}
	it, _, err := f.ExecuteStreamOp(ctx, plan, params...)
	if err != nil {
		return nil, nil, err
	}
	return it, plan, nil
}

// runOnSourceStreamCtx executes SQL on one member database and returns
// its rows as an iterator. The member engine materializes the sub-query's
// result, and the iterator hands its rows on with no second copy
// (sqlengine.QueryDB). The source's in-flight counter (the
// load-distribution signal) stays raised until the iterator is closed.
func (f *Federation) runOnSourceStreamCtx(ctx context.Context, source, sqlText string, params []sqlengine.Value) (sqlengine.RowIter, error) {
	f.mu.RLock()
	s, ok := f.sources[source]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unity: no source %q", source)
	}
	s.inflight.Add(1)
	return sqlengine.QueryDB(ctx, s.db, fmt.Sprintf("unity: source %q", source), sqlText, params, func() { s.inflight.Add(-1) })
}

// openLoad opens the row stream of one decomposed table load: a cursor on
// its member database, or — for a peer location — whatever OpenPeer
// returns.
func (f *Federation) openLoad(ctx context.Context, ld *tableLoad) (sqlengine.RowIter, error) {
	if !ld.peer {
		return f.runOnSourceStreamCtx(ctx, ld.source, ld.sql, nil)
	}
	if f.OpenPeer == nil {
		return nil, fmt.Errorf("unity: table %q is at peer %q and the federation has no peer opener", ld.logical, ld.source)
	}
	return f.OpenPeer(ctx, ld.source, ld.sql)
}
