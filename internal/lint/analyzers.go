package lint

// All returns the full gridlint suite in the order findings are easiest
// to act on: context discipline first (it names the fix inline), then
// resource lifetime, then wire/metric hygiene.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFlow,
		RowIterClose,
		LockScope,
		FaultDiscipline,
		ObsvReg,
		PoolGuard,
	}
}

// AllModule returns the whole-module (interprocedural) suite. These run
// over the call graph and per-function summaries a single Load builds,
// so the driver invokes them once per run, not once per package.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		LockOrder,
		GoroLeak,
		WireConform,
		DeadCode,
	}
}
