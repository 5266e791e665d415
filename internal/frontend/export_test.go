package frontend

// SetExecHookForTest installs a hook run just before each statement
// executes. Tests use it to inject panics and to hold a statement in
// flight at a chosen moment. Call before Serve.
func SetExecHookForTest(f *Frontend, hook func(sql string)) {
	f.testExecHook = hook
}
