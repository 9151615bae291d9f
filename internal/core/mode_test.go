package core_test

import (
	"testing"

	"github.com/s3pg/s3pg/internal/core"
)

// TestParseModeRoundTrip covers the mode string round trip the job service
// and the live-graph API parse requests with.
func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		got, err := core.ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	// The service APIs document the unhyphenated alias.
	if got, err := core.ParseMode("nonparsimonious"); err != nil || got != core.NonParsimonious {
		t.Fatalf(`ParseMode("nonparsimonious") = %v, %v`, got, err)
	}
	if _, err := core.ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}
