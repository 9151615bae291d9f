package exp

import "io"

// DefaultConfig returns the configuration the committed EXPERIMENTS.md was
// produced with: cmd/experiments' flag defaults.
func DefaultConfig(w io.Writer) Config {
	return Config{Scale: 0.001, Seed: 1, W: w, MinSupport: 0.02, Workers: 1}
}
