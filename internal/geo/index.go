package geo

// Index is a uniform-grid spatial index over a fixed set of points that
// answers radius queries (DBSCAN's neighbourhoods). Build once, query many
// times; the index does not support mutation.
type Index struct {
	cell   float64
	minX   float64
	minY   float64
	nx, ny int
	cells  [][]int32 // point ids per cell
	pts    []Point
}

// NewIndex builds an index over pts with the given cell size in meters. A
// cell size near the typical query radius gives the best performance; 50 m
// works well for delivery-scale data. NewIndex copies nothing: the caller
// must not mutate pts while the index is in use.
func NewIndex(pts []Point, cellSize float64) *Index {
	if cellSize <= 0 {
		cellSize = 50
	}
	idx := &Index{cell: cellSize, pts: pts}
	if len(pts) == 0 {
		idx.nx, idx.ny = 1, 1
		idx.cells = make([][]int32, 1)
		return idx
	}
	r := BoundingRect(pts)
	idx.minX, idx.minY = r.MinX, r.MinY
	idx.nx = int(r.Width()/cellSize) + 1
	idx.ny = int(r.Height()/cellSize) + 1
	idx.cells = make([][]int32, idx.nx*idx.ny)
	for i, p := range pts {
		c := idx.cellOf(p)
		idx.cells[c] = append(idx.cells[c], int32(i))
	}
	return idx
}

func (idx *Index) cellOf(p Point) int {
	cx := int((p.X - idx.minX) / idx.cell)
	cy := int((p.Y - idx.minY) / idx.cell)
	cx = max(0, min(cx, idx.nx-1))
	cy = max(0, min(cy, idx.ny-1))
	return cy*idx.nx + cx
}

// Within returns the ids of all indexed points within radius r of q, in
// unspecified order.
func (idx *Index) Within(q Point, r float64) []int {
	if len(idx.pts) == 0 || r < 0 {
		return nil
	}
	var out []int
	rSq := r * r
	x0 := int((q.X - r - idx.minX) / idx.cell)
	x1 := int((q.X + r - idx.minX) / idx.cell)
	y0 := int((q.Y - r - idx.minY) / idx.cell)
	y1 := int((q.Y + r - idx.minY) / idx.cell)
	x0, x1 = max(0, x0), min(x1, idx.nx-1)
	y0, y1 = max(0, y0), min(y1, idx.ny-1)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range idx.cells[cy*idx.nx+cx] {
				if SqDist(q, idx.pts[id]) <= rSq {
					out = append(out, int(id))
				}
			}
		}
	}
	return out
}
