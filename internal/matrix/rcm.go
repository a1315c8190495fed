package matrix

import "sort"

// RCM returns the Reverse Cuthill-McKee permutation of a square
// matrix (new → old): a breadth-first ordering of the symmetrized
// adjacency graph from a pseudo-peripheral low-degree vertex, with
// neighbours visited in increasing-degree order, reversed. RCM
// reduces the matrix bandwidth and therefore improves the RHS cache
// reuse (the α of Eq. 1) that the paper identifies as a main
// performance lever; it composes with pJDS (reorder first, then sort
// by length within the reordered matrix).
func RCM[T Float](m *CSR[T]) Perm {
	n := m.NRows
	if n == 0 {
		return Perm{}
	}
	// Symmetrized adjacency: row pattern plus column pattern.
	tr := m.Transpose()
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		cols, _ := m.Row(i)
		tcols, _ := tr.Row(i)
		merged := make([]int32, 0, len(cols)+len(tcols))
		a, b := 0, 0
		for a < len(cols) || b < len(tcols) {
			var c int32
			switch {
			case a == len(cols):
				c = tcols[b]
				b++
			case b == len(tcols):
				c = cols[a]
				a++
			case cols[a] < tcols[b]:
				c = cols[a]
				a++
			case cols[a] > tcols[b]:
				c = tcols[b]
				b++
			default:
				c = cols[a]
				a++
				b++
			}
			if int(c) != i && (len(merged) == 0 || merged[len(merged)-1] != c) {
				merged = append(merged, c)
			}
		}
		adj[i] = merged
	}
	degree := func(v int32) int { return len(adj[v]) }

	order := make([]int32, 0, n)
	visited := make([]bool, n)
	// Process every connected component.
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := int32(start)
		visited[root] = true
		compStart := len(order)
		order = append(order, root)
		for qi := compStart; qi < len(order); qi++ {
			v := order[qi]
			// Gather unvisited neighbours, sorted by ascending degree.
			var next []int32
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					next = append(next, w)
				}
			}
			sort.Slice(next, func(a, b int) bool {
				da, db := degree(next[a]), degree(next[b])
				if da != db {
					return da < db
				}
				return next[a] < next[b]
			})
			order = append(order, next...)
		}
	}
	// Reverse (the "R" in RCM).
	p := make(Perm, n)
	for i, v := range order {
		p[n-1-i] = int(v)
	}
	return p
}
