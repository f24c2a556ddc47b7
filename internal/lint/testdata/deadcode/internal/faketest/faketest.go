// Package faketest stands for a test-support package (leaktest,
// linttest): its exported functions exist for _test.go callers.
package faketest

// Check is test-support API.
func Check() int { return helper() }

func helper() int { return 1 }

func unused() {} // want `faketest\.unused is unreachable`
