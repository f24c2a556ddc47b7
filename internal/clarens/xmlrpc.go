package clarens

import (
	"context"
	"errors"
	"fmt"
)

// Fault is an XML-RPC fault response.
type Fault struct {
	Code    int
	Message string
}

// Error implements the error interface.
func (f *Fault) Error() string { return fmt.Sprintf("clarens: fault %d: %s", f.Code, f.Message) }

// FaultFor maps a method error to the fault sent on the wire: Faults pass
// through (a wrapped Fault keeps its code but the full annotated message,
// so "forward to <url>:" context survives re-faulting), context
// cancellation and deadline expiry map to FaultCancelled, everything else
// to FaultApplication.
func FaultFor(err error) *Fault {
	var f *Fault
	if errors.As(err, &f) {
		if top, ok := err.(*Fault); ok {
			return top
		}
		return &Fault{Code: f.Code, Message: err.Error()}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &Fault{Code: FaultCancelled, Message: err.Error()}
	}
	return &Fault{Code: FaultApplication, Message: err.Error()}
}

// IsCancelled reports whether an error represents an abandoned call: a
// FaultCancelled fault from a server, or a local context error (as seen
// by a client whose own context expired mid-call).
func IsCancelled(err error) bool {
	var f *Fault
	if errors.As(err, &f) {
		return f.Code == FaultCancelled
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Fault codes used by the server.
const (
	FaultParse       = 100
	FaultNoMethod    = 101
	FaultAuth        = 102
	FaultApplication = 103
	// FaultCancelled reports that a method's context was cancelled —
	// the client disconnected, the caller's deadline expired, or the
	// server's per-request timeout fired — before it produced a result.
	// A distinct code lets clients (and a future system.cancel method)
	// tell an abandoned query from an application failure.
	FaultCancelled = 104
	// FaultOverloaded reports that the server shed the request under
	// load before doing any work on it: the admission queue was full,
	// the queue-with-deadline expired before a slot freed, or a
	// per-session quota (open cursors, streamed bytes) was exhausted.
	// A distinct code tells clients "the server is healthy but
	// saturated — back off and retry" apart from an application failure
	// (don't retry) or a cancellation (the caller gave up).
	FaultOverloaded = 105
)
