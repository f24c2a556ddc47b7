// Package core is internal: an exported name here is a root only if
// something reachable uses it.
package core

import (
	"net/http"
	"strconv"
)

// Engine is aliased by the facade.
type Engine struct{ n int }

// New is reached from the facade.
func New(n int) *Engine { return &Engine{n: n} }

// Size is API through the facade's alias.
func (e *Engine) Size() int { return e.n }

// grow is unexported, so the alias does not make it API.
func (e *Engine) grow() { e.n++ } // want `core\.Engine\.grow is unreachable`

// String satisfies fmt.Stringer: code outside the module calls it.
func (e *Engine) String() string { return strconv.Itoa(e.n) }

// TestOnly stands for a helper that only _test.go files call.
func TestOnly() int { return 3 } // want `core\.TestOnly is unreachable from every root`

// Kept is audited API with no caller yet.
//
//lint:ignore deadcode fixture: kept for a caller outside the module
func Kept() {}

// Handler is handed to net/http, which calls ServeHTTP.
type Handler struct{}

func (Handler) ServeHTTP(http.ResponseWriter, *http.Request) {}

// Err satisfies error; its extra method is nobody's.
type Err struct{}

func (Err) Error() string { return "err" }

func (Err) Detail() string { return "" } // want `core\.Err\.Detail is unreachable`

// Shape is sealed by its tag method: shape() is never called, but
// deleting it would unseal Square.
type Shape interface {
	Area() int
	Perimeter() int
	shape()
}

// Square implements Shape.
type Square struct{ S int }

func (q Square) Area() int { return q.S * q.S }

func (q Square) Perimeter() int { return 4 * q.S } // want `core\.Square\.Perimeter is unreachable`

func (Square) shape() {}

// Total calls Area through the interface: every implementation's Area
// is reachable, Perimeter is not.
func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}
