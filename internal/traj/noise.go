package traj

import "dlinfma/internal/geo"

// NoiseFilterConfig controls the heuristics-based outlier filter of
// Zheng's trajectory preprocessing chapter (paper ref [8]).
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

// FilterNoise returns a new trajectory with implausible fixes removed.
//
// The heuristic walks the trajectory keeping a last-accepted anchor; a fix is
// rejected when it implies a speed above MaxSpeed from the anchor or repeats
// the anchor's timestamp. A single spike therefore costs one point, while a
// genuine fast segment (many consistent fixes) re-anchors after the filter
// sees that the next fix is consistent with the rejected one — implemented by
// allowing the anchor to move to the rejected candidate when two consecutive
// candidates agree with each other but not with the anchor.
func FilterNoise(tr Trajectory, cfg NoiseFilterConfig) Trajectory {
	if len(tr) == 0 {
		return nil
	}
	if cfg.MaxSpeed <= 0 {
		cfg.MaxSpeed = DefaultNoiseFilter().MaxSpeed
	}
	out := make(Trajectory, 0, len(tr))
	out = append(out, tr[0])
	var pending *GPSPoint // last rejected fix, candidate for re-anchoring
	for i := 1; i < len(tr); i++ {
		p := tr[i]
		last := out[len(out)-1]
		dt := p.T - last.T
		if dt < cfg.MinInterval {
			continue
		}
		speed := geo.Dist(p.P, last.P) / dt
		if speed <= cfg.MaxSpeed {
			out = append(out, p)
			pending = nil
			continue
		}
		// Outlier with respect to the anchor. If it is consistent with the
		// previous rejected fix, the anchor itself was the outlier: accept
		// both rejected fixes.
		if pending != nil {
			pdt := p.T - pending.T
			if pdt >= cfg.MinInterval && geo.Dist(p.P, pending.P)/pdt <= cfg.MaxSpeed {
				out = append(out, *pending, p)
				pending = nil
				continue
			}
		}
		cp := p
		pending = &cp
	}
	return out
}
