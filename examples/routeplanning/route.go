package main

import (
	"math"

	"dlinfma/internal/geo"
)

// PlanRoute solves the delivery TSP heuristically (Application 1, Section
// VI-B): nearest-neighbor construction followed by 2-opt and Or-opt
// improvement passes, iterated to a local optimum. It returns the visit
// order over stops (indices into stops) starting from start; the route
// implicitly returns to start.
func PlanRoute(start geo.Point, stops []geo.Point) []int {
	n := len(stops)
	if n == 0 {
		return nil
	}
	// Nearest-neighbor construction.
	order := make([]int, 0, n)
	used := make([]bool, n)
	pos := start
	for len(order) < n {
		best, bestD := -1, math.Inf(1)
		for i, s := range stops {
			if used[i] {
				continue
			}
			if d := geo.SqDist(pos, s); d < bestD {
				best, bestD = i, d
			}
		}
		used[best] = true
		order = append(order, best)
		pos = stops[best]
	}
	// Alternate 2-opt (segment reversal) and Or-opt (segment relocation)
	// until neither improves the closed tour.
	improved := true
	for improved {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				if twoOptGain(start, stops, order, i, j) > 1e-9 {
					reverse(order[i : j+1])
					improved = true
				}
			}
		}
		if orOptPass(start, stops, order) {
			improved = true
		}
	}
	return order
}

// orOptPass relocates chains of 1-3 consecutive stops to better positions,
// returning whether any move improved the tour. Or-opt reaches local optima
// that segment reversal alone cannot (e.g. extracting a stop stranded
// between two clusters).
func orOptPass(start geo.Point, stops []geo.Point, order []int) bool {
	n := len(order)
	at := func(k int) geo.Point {
		if k < 0 || k >= n {
			return start
		}
		return stops[order[k]]
	}
	improvedAny := false
	for size := 1; size <= 3 && size < n; size++ {
		for i := 0; i+size <= n; i++ {
			// Removing order[i:i+size] saves:
			removeGain := geo.Dist(at(i-1), at(i)) + geo.Dist(at(i+size-1), at(i+size)) -
				geo.Dist(at(i-1), at(i+size))
			if removeGain <= 1e-9 {
				continue
			}
			chain := append([]int(nil), order[i:i+size]...)
			rest := append(append([]int(nil), order[:i]...), order[i+size:]...)
			// Best reinsertion position in the remaining tour.
			restAt := func(k int) geo.Point {
				if k < 0 || k >= len(rest) {
					return start
				}
				return stops[rest[k]]
			}
			bestPos, bestCost := -1, removeGain
			head, tail := stops[chain[0]], stops[chain[len(chain)-1]]
			for pos := 0; pos <= len(rest); pos++ {
				if pos == i { // same position: no-op
					continue
				}
				insCost := geo.Dist(restAt(pos-1), head) + geo.Dist(tail, restAt(pos)) -
					geo.Dist(restAt(pos-1), restAt(pos))
				if insCost < bestCost-1e-9 {
					bestPos, bestCost = pos, insCost
				}
			}
			if bestPos >= 0 {
				out := append(append(append([]int(nil), rest[:bestPos]...), chain...), rest[bestPos:]...)
				copy(order, out)
				improvedAny = true
			}
		}
	}
	return improvedAny
}

// twoOptGain returns the tour-length reduction from reversing order[i..j].
func twoOptGain(start geo.Point, stops []geo.Point, order []int, i, j int) float64 {
	at := func(k int) geo.Point {
		if k < 0 || k >= len(order) {
			return start
		}
		return stops[order[k]]
	}
	before := geo.Dist(at(i-1), at(i)) + geo.Dist(at(j), at(j+1))
	after := geo.Dist(at(i-1), at(j)) + geo.Dist(at(i), at(j+1))
	return before - after
}

func reverse(a []int) {
	for l, r := 0, len(a)-1; l < r; l, r = l+1, r-1 {
		a[l], a[r] = a[r], a[l]
	}
}

// RouteLength returns the closed-tour length of visiting stops in the given
// order from start and back.
func RouteLength(start geo.Point, stops []geo.Point, order []int) float64 {
	pos := start
	var total float64
	for _, i := range order {
		total += geo.Dist(pos, stops[i])
		pos = stops[i]
	}
	return total + geo.Dist(pos, start)
}
