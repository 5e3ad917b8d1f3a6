// Package testenv tells tests about the binary they were built into.
package testenv

import "runtime/debug"

// UnderRace reports whether the binary was built with -race, whose
// instrumentation allocates on the program's behalf — allocation budgets
// skip themselves under it.
func UnderRace() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
