// Package unity reimplements (and extends) the Unity database-integration
// driver the paper used as its baseline (§3, §4.6). A Federation is built
// from XSpec metadata: the upper-level spec lists the member databases
// (URL + driver + lower spec) and the lower-level specs provide the
// logical data dictionary. Clients submit ordinary SQL written against
// *logical* table and column names; the federation maps logical names to
// physical ones, decomposes the query into per-database sub-queries
// rendered in each backend's vendor dialect, executes them — in parallel,
// one of the paper's enhancements over stock Unity — and integrates the
// partial results, applying cross-database joins, into a single result
// ("merged into a single 2-D vector, and returned to the client").
//
// Names map through the dictionary's entries for the statement's own
// tables at the member a query is rendered for (render.go). A bare
// column renders bare only when every statement table that has it
// logically maps it to one physical name and no statement table has that
// physical name under another logical name; otherwise the member could
// resolve it differently than the statement does, so the rendering fails
// and the query runs decomposed, where the operators resolve every name
// as one engine does.
//
// The second paper enhancement, load distribution, is also here: when a
// logical table is replicated on several databases the federation routes
// each sub-query to the least-loaded replica, with network-proximity
// costs (SetSourceCost) breaking the tie first.
//
// Execution has one path. ExecuteStreamOp returns an incremental
// sqlengine.RowIter: pushdown plans hand on the member engine's result
// rows as they are (sqlengine.QueryDB), and decomposed plans run
// pipelined — on sqlengine's operators, the executor the member engines
// run too — over member loads opened through the
// scatter-gather (a bounded worker pool, MaxParallel; a pool one wide is
// stock Unity's sequential run). The tables an IN/EXISTS subquery reads
// are loads of the same plan, and the pipeline runs the subquery over
// them. Each load selects only the columns the statement reads of its
// table (columns.go). ExecuteContext is the drained stream.
//
// A table need not live on a member database. PlanQueryAt takes, beside
// the query, the locations of the tables the dictionary does not know
// (the data access layer passes the peer Clarens server the RLS named for
// each) and, when the caller has them, their columns: such a table is one
// more load of the same decomposed plan — without a row count, and
// without columns SELECT * with only alias-qualified conjuncts pushed —
// opened through the one hook OpenPeer, which the data access layer sets
// to its cursor relay. Nothing else about planning or execution depends
// on where a table is.
package unity
