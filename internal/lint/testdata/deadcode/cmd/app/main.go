package main

import (
	"fmt"
	"net/http"

	"gridrdb/lintfixture/deadcode/internal/core"
)

// handlers is read by main, so its initializer's functions are live.
var handlers = map[string]func() int{"three": three}

// table is never read: its initializer keeps nothing alive.
var table = map[string]func() int{"four": four}

// A blank var initializer runs for its side effect.
var _ = registered()

func init() { initHelper() }

func initHelper() {}

func main() {
	fmt.Println(handlers["three"](), core.Total([]core.Shape{core.Square{S: 2}}))
	http.Handle("/", core.Handler{})
	run(callback)
	go worker()
}

func run(f func()) { f() }

func callback() {}

func worker() {}

func three() int { return 3 }

func four() int { return 4 } // want `main\.four is unreachable`

func registered() int { return 0 }

func unreachable() { four() } // want `main\.unreachable is unreachable`
