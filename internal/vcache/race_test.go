//go:build race

package vcache_test

func init() { raceEnabled = true }
