package traj

// NoiseFilterConfig controls the heuristics-based outlier filter of
// Zheng's trajectory preprocessing chapter (paper ref [8]), which
// StreamExtractor applies to every fix before stay-point detection.
type NoiseFilterConfig struct {
	// MaxSpeed is the maximum plausible courier speed in m/s. Fixes that
	// imply a higher speed from the last accepted fix are dropped. Couriers
	// ride e-bikes; 25 m/s (90 km/h) is already generous.
	MaxSpeed float64
	// MinInterval drops fixes closer than this many seconds to the last
	// accepted fix (duplicate or out-of-order timestamps).
	MinInterval float64
}

// DefaultNoiseFilter returns the configuration used throughout the paper
// reproduction.
func DefaultNoiseFilter() NoiseFilterConfig {
	return NoiseFilterConfig{MaxSpeed: 25, MinInterval: 1}
}
