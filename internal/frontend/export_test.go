package frontend

// SetExecHookForTest installs a hook run just before each statement
// executes. Tests use it to inject panics and to hold a statement in
// flight at a chosen moment. Call before Serve.
func SetExecHookForTest(f *Frontend, hook func(sql string)) {
	f.testExecHook = hook
}

// HandOversForTest reports how many times a session of f has passed its
// read token to a new goroutine, before executing or late.
func HandOversForTest(f *Frontend) int64 { return f.handOvers.Load() }

// InlineBudgetForTest is how long a statement may take for the next one
// on its session to keep the read token while it runs.
const InlineBudgetForTest = inlineBudget
