package mat

// Nested dissection: recursively split the graph with a vertex
// separator, number the two halves first and the separator last, and
// order the leaves with AMD. Eliminating a half can only fill within
// itself and the separators above it, so the recursion bounds fill.

// ndLeafSize bounds the subgraphs nested dissection stops splitting and
// orders directly with AMD. It stays 64 because every nd permutation,
// and with it every result factored under nd, depends on it: a
// different leaf size changes the bits of those results.
const ndLeafSize = 64

// NDOrder computes a nested-dissection ordering of a's symmetrised
// adjacency graph (perm[new] = old). The separator of each bisection is
// one full BFS level from a pseudo-peripheral root — the narrowest
// level whose sides stay reasonably balanced — so it is a true vertex
// separator: no edge joins the two sides. The ordering is a
// deterministic pure function of the pattern.
func NDOrder(a *Sparse) []int {
	n := a.N()
	adj := symAdjacency(a)
	perm := make([]int, n)

	// Stamp-based membership and visit marks shared across the (serial)
	// recursion — no per-level allocation of n-sized scratch.
	member := make([]int, n)
	visited := make([]int, n)
	localIdx := make([]int, n)
	stamp := 0

	// leaf orders sub with AMD on the induced subgraph into the
	// contiguous span starting at base.
	leaf := func(sub []int, base int) {
		stamp++
		for i, v := range sub {
			member[v] = stamp
			localIdx[v] = i
		}
		ladj := make([][]int, len(sub))
		for i, v := range sub {
			for _, w := range adj[v] {
				if member[w] == stamp {
					ladj[i] = append(ladj[i], localIdx[w])
				}
			}
		}
		for i, li := range amdOrder(ladj) {
			perm[base+i] = sub[li]
		}
	}

	// levels runs a BFS over the induced subgraph from start, returning
	// the level structure. Neighbour lists are sorted, so the traversal
	// is deterministic.
	levels := func(sub []int, start int) [][]int {
		stamp++
		for _, v := range sub {
			member[v] = stamp
		}
		visited[start] = stamp
		frontier := []int{start}
		var out [][]int
		for len(frontier) > 0 {
			out = append(out, frontier)
			var next []int
			for _, v := range frontier {
				for _, w := range adj[v] {
					if member[w] == stamp && visited[w] != stamp {
						visited[w] = stamp
						next = append(next, w)
					}
				}
			}
			frontier = next
		}
		return out
	}

	minDeg := func(nodes []int) int {
		best := nodes[0]
		for _, v := range nodes[1:] {
			if len(adj[v]) < len(adj[best]) || (len(adj[v]) == len(adj[best]) && v < best) {
				best = v
			}
		}
		return best
	}

	var build func(sub []int, base int)
	build = func(sub []int, base int) {
		if len(sub) <= ndLeafSize {
			leaf(sub, base)
			return
		}
		// Split connected components first: each is ordered on its own,
		// into consecutive spans.
		lv := levels(sub, minDeg(sub))
		reached := 0
		for _, l := range lv {
			reached += len(l)
		}
		if reached < len(sub) {
			// Collect every component before recursing: the recursion
			// reuses the shared stamp arrays.
			stamp++
			for _, v := range sub {
				member[v] = stamp
			}
			compStamp := stamp
			var comps [][]int
			for _, v := range sub {
				if visited[v] == compStamp {
					continue
				}
				visited[v] = compStamp
				comp := []int{v}
				for q := 0; q < len(comp); q++ {
					for _, w := range adj[comp[q]] {
						if member[w] == compStamp && visited[w] != compStamp {
							visited[w] = compStamp
							comp = append(comp, w)
						}
					}
				}
				comps = append(comps, comp)
			}
			for _, comp := range comps {
				build(comp, base)
				base += len(comp)
			}
			return
		}
		// Connected: re-root at a pseudo-peripheral node (the far end of
		// the first BFS) for a deep, narrow level structure.
		lv = levels(sub, minDeg(lv[len(lv)-1]))
		if len(lv) < 3 {
			leaf(sub, base) // too shallow to bisect (near-clique)
			return
		}
		// Separator = the narrowest BFS level whose sides stay within a
		// 25–75% balance band; lacking one, the level closest to the
		// median.
		prefix := 0
		sep, sepSize, fallback, fallbackDist := -1, 0, 1, len(sub)
		for l := 1; l < len(lv)-1; l++ {
			prefix += len(lv[l-1])
			if d := prefix - len(sub)/2; d*d < fallbackDist*fallbackDist {
				fallback, fallbackDist = l, d
			}
			if 4*prefix >= len(sub) && 4*(prefix+len(lv[l])) <= 3*len(sub) {
				if sep < 0 || len(lv[l]) < sepSize {
					sep, sepSize = l, len(lv[l])
				}
			}
		}
		if sep < 0 {
			sep = fallback
		}
		var left, right []int
		for _, l := range lv[:sep] {
			left = append(left, l...)
		}
		for _, l := range lv[sep+1:] {
			right = append(right, l...)
		}
		build(left, base)
		build(right, base+len(left))
		lo := base + len(left) + len(right)
		for i, v := range lv[sep] {
			perm[lo+i] = v
		}
	}

	if n > 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		build(all, 0)
	}
	return perm
}
