package iosched

// WithGate installs a test-only issue gate: fn runs before each device call,
// with the call's blocks, once their call holds a slot (ops marked issued,
// still coalescable). Tests use it to hold a read in flight — and with it a
// slot — deterministically.
func (c Config) WithGate(fn func(blocks []int)) Config {
	c.gate = fn
	return c
}
