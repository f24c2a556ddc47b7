// Package sqlengine implements a small, self-contained relational database
// engine used as the substrate for the gridrdb middleware. It provides an
// SQL lexer, parser, planner and executor over an in-memory (optionally
// file-persisted) row store, together with per-vendor SQL dialects that
// emulate the surface differences between Oracle, MySQL, Microsoft SQL
// Server and SQLite. The grid middleware layers (POOL-RAL, Unity, the data
// access service) treat each Engine instance as an independent database
// server.
//
// Every SELECT runs on one executor, the streaming operator pipeline
// (operators.go): table inputs, left-deep hash or nested-loop joins
// (INNER, LEFT, RIGHT, CROSS, comma), filter, project or GROUP BY
// aggregate, DISTINCT, ORDER BY, OFFSET/LIMIT and UNION chains. The
// engine composes it over its own tables and drains it into a ResultSet;
// the federation composes the same pipeline over member loads and
// peer relays. AnalyzeStreamSelect turns a statement into that pipeline
// for a caller without a database. Such a caller also supplies the
// tables its IN/EXISTS subqueries read, and the pipeline runs them
// through the engine's executor over those inputs. The analysis rejects
// only what needs columns the caller does not know: over an input whose
// columns are unknown until read, a star or a join without an
// attributable equi-key.
//
// A branch that reads one table hands its WHERE to the executor's table
// input, which picks an access path (access.go): the rows a hash index
// finds for equality conjuncts, a key range of a table whose one-column
// primary key is stored in order, or every row. The WHERE filter still
// runs over what the path returns, so every path keeps three invariants:
// it returns a superset of the matching rows, in table order, and skips
// no row the WHERE would have raised an error on.
//
// Results flow through two shapes. A ResultSet is a fully materialized
// answer: column names plus a slice of rows of dynamically-typed Values.
// A RowIter is the incremental counterpart — rows are produced one at a
// time as the consumer pulls, so a scan larger than memory can be paged,
// teed, or abandoned without the producer ever holding the whole result;
// SliceIter and Drain convert between the two. The streaming layers built
// above this package (unity pushdown plans, the data access layer's
// cursor registry and its cursor-to-cursor relay between Clarens servers)
// all speak RowIter, which is what keeps per-scan memory bounded by a
// fetch size from the backend row store to the remotest client.
package sqlengine
