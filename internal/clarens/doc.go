// Package clarens reimplements the Clarens/JClarens web-service layer the
// paper builds its interface on: an XML-RPC server multiplexing named
// service methods over HTTP, with session-based authentication, and a
// matching lightweight client. The data access service (§4.5) registers
// its methods on this server; "all kinds of (simple and) complex clients"
// reach the middleware through it. The on-the-wire contract — envelope,
// fault codes, capability handshake, row encodings, size caps — is
// specified for third-party client authors in docs/WIRE.md.
//
// Calls are cancellable end-to-end: each Method receives a
// context.Context derived from the HTTP request (cancelled on client
// disconnect, optionally bounded by Server.SetRequestTimeout), the
// Client's CallContext threads a caller context into the request, and
// context errors surface as the distinct FaultCancelled fault code.
//
// The wire codec is the streaming, zero-boxing pair in encode.go /
// decode.go: responses are rendered straight into pooled buffers (payloads
// implementing ValueMarshaler encode cell-direct) and stream to the client
// past a size threshold, and documents are decoded in one walk over a byte
// scanner specialised to XML-RPC (xmlscan.go) — tokens are sub-slices of a
// pooled read window, so the walk allocates nothing per token — instead of
// an intermediate generic tree. Client.CallDecodeContext hands the
// positioned Decoder to the caller so row payloads land directly in engine
// values. xmlrpc.go holds the fault model. The decoder's oracles live in
// the tests: the encoding/xml generic-tree decoder (tree_test.go) and the
// encoding/xml token walker it replaced (decode_oracle_test.go); the fuzz
// targets hold the scanner to encoding/xml's acceptance set.
package clarens
