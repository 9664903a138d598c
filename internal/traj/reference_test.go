package traj

import "dlinfma/internal/geo"

// The Definition-4 reference: the batch noise filter and the seek-forward
// stay-point detector written as whole-trajectory loops. StreamExtractor is
// the only production implementation; requireBitIdentical and
// FuzzStayPointExtraction hold it to these two, bit for bit.

// filterNoise returns a new trajectory with implausible fixes removed.
//
// The heuristic walks the trajectory keeping a last-accepted anchor; a fix is
// rejected when it implies a speed above MaxSpeed from the anchor or repeats
// the anchor's timestamp. A single spike therefore costs one point, while a
// genuine fast segment (many consistent fixes) re-anchors after the filter
// sees that the next fix is consistent with the rejected one — implemented by
// allowing the anchor to move to the rejected candidate when two consecutive
// candidates agree with each other but not with the anchor.
func filterNoise(tr Trajectory, cfg NoiseFilterConfig) Trajectory {
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

// detectStayPoints extracts stay points from tr using the seek-forward
// algorithm of Li et al. (paper ref [7]): anchor at p_i, extend j while
// distance(p_i, p_j) <= DMax, and emit a stay point if the accumulated span
// reaches TMin. The scan resumes after the emitted segment, so stay points
// never overlap.
func detectStayPoints(tr Trajectory, cfg StayPointConfig) []StayPoint {
	if cfg.DMax <= 0 || cfg.TMin <= 0 {
		cfg = DefaultStayPointConfig()
	}
	var out []StayPoint
	i := 0
	n := len(tr)
	for i < n-1 {
		j := i + 1
		for j < n && geo.Dist(tr[i].P, tr[j].P) <= cfg.DMax {
			j++
		}
		// Members are tr[i..j-1].
		if last := j - 1; last > i && tr[last].T-tr[i].T >= cfg.TMin {
			var sx, sy float64
			for k := i; k <= last; k++ {
				sx += tr[k].P.X
				sy += tr[k].P.Y
			}
			m := float64(last - i + 1)
			out = append(out, StayPoint{
				Loc:     geo.Point{X: sx / m, Y: sy / m},
				ArriveT: tr[i].T,
				LeaveT:  tr[last].T,
				NPoints: last - i + 1,
			})
			i = j
			continue
		}
		i++
	}
	return out
}
