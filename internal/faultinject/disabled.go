//go:build prod

package faultinject

// Activate is a no-op in prod builds; the restore func does nothing.
func Activate(Plan) (restore func()) { return func() {} }

// Enabled always reports false in prod builds.
func Enabled() bool { return false }

// Hits always reports zero in prod builds.
func Hits(string) uint64 { return 0 }

// Hit is a constant no-op in prod builds; the inliner erases it from
// the instrumented call sites.
func Hit(string) error { return nil }
