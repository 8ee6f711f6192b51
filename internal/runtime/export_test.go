package runtime

// SetStampYield installs f as the stamp-frontier yield hook (see
// stampYield) and returns a function that removes it.
func SetStampYield(f func()) (restore func()) {
	stampYield = f
	return func() { stampYield = nil }
}
