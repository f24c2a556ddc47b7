// Package dataaccess implements the paper's data access layer (§4.5): the
// JClarens-hosted service that receives SQL over logical names, decides
// per query whether to route through the POOL-RAL module (databases whose
// vendor POOL supports) or the Unity/JDBC module (everything else), and —
// when a requested table is not registered locally — consults the Replica
// Location Service and hands the federation the remote JClarens instance
// that hosts it as one more location of the query's plan: the whole query
// goes there when every table does, otherwise that table's sub-query is
// one load of the decomposed plan beside the member databases'. It also
// hosts the runtime features of §4.9 (schema-change tracking) and §4.10
// (plug-in databases).
//
// Every query path is context-aware end-to-end: QueryContext threads its
// context through the POOL-RAL statement, each Unity sub-query, RLS
// lookups and remote JClarens forwards, so a disconnected or timed-out
// client stops consuming backend resources promptly. The XML-RPC method
// layer (RegisterMethods) derives that context from the HTTP request.
//
// Each query is routed once (route.go: resolve) and executed on one path
// (open) that yields a row stream; QueryStreamContext hands the stream to
// its consumer, QueryContext drains it into a materialized result, and
// Explain renders the same routing decision without executing it. Remote
// consumers page streams through a server-side cursor registry
// (OpenCursor/FetchCursor/CloseCursor, the system.cursor.* methods) whose
// idle cursors a TTL janitor reaps. When a streamed query routes to
// another JClarens instance, the service opens a cursor *there* and
// relays it page by page (relay.go): memory per federated scan is bounded
// by the fetch size on every hop, the remote cursor is closed when the
// local stream closes, and the transfer rides the negotiated binary row
// framing (system.cursor.fetchb) when the peer advertises it — falling
// back to plain XML-RPC otherwise. Row payloads themselves travel through the
// zero-boxing wire codec (wirecodec.go) in either of two encodings; the
// full wire surface is specified in docs/WIRE.md.
package dataaccess
