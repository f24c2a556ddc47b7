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
// The second paper enhancement, load distribution, is also here: when a
// logical table is replicated on several databases the federation routes
// each sub-query to the least-loaded replica, with network-proximity
// costs (SetSourceCost) breaking the tie first.
//
// Execution comes in two shapes. ExecuteStreamOp returns an incremental
// sqlengine.RowIter: pushdown plans stream straight off the backend
// cursor, so a scan larger than memory can be paged by the consumer, and
// decomposed plans the streaming operators can serve run pipelined over
// member cursors opened through the scatter-gather (a bounded worker
// pool, MaxParallel). ExecuteContext materializes: decomposed plans
// scatter-gather their per-table sub-queries (optionally bounded per
// sub-query by SourceBudget) into a scratch engine and integrate there —
// the fallback for the remaining shapes and the reference the operators
// are tested against. IntegrateStream and IntegrateIters expose the two
// integration steps over caller-supplied row streams; the data access
// layer feeds them cursor relays from remote Clarens servers so
// federated joins consume remote streams incrementally too.
package unity
