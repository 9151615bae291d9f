package core

import "fmt"

// ParseMode parses a Mode.String() value back. The "nonparsimonious"
// spelling is accepted as an alias, matching the CLI's -mode flag and the
// service API docs.
func ParseMode(s string) (Mode, error) {
	switch s {
	case Parsimonious.String():
		return Parsimonious, nil
	case NonParsimonious.String(), "nonparsimonious":
		return NonParsimonious, nil
	default:
		return 0, fmt.Errorf("core: unknown mode %q", s)
	}
}
