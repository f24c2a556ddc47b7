// Package deadcode is the importable facade of the fixture module: its
// exported declarations, and the exported methods of the types it
// re-exports by alias, are API callers outside the module may use.
package deadcode

import "gridrdb/lintfixture/deadcode/internal/core"

// Engine is re-exported, so Engine.Size is facade API.
type Engine = core.Engine

// Open is facade API.
func Open() *Engine { return core.New(helper()) }

func helper() int { return 1 }

func orphan() int { return 2 } // want `deadcode: deadcode\.orphan is unreachable`
