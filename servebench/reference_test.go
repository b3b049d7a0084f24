package main

import (
	"reflect"
	"testing"
)

func completeEdges(n int) [][2]int {
	var e [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e = append(e, [2]int{i, j})
		}
	}
	return e
}

func cycleEdges(n int) [][2]int {
	var e [][2]int
	for i := 0; i < n; i++ {
		e = append(e, [2]int{i, (i + 1) % n})
	}
	return e
}

func TestColorRestrictionsByHand(t *testing.T) {
	all := [][]int32{{0}, {1}, {2}}
	if got := colorRestrictions(4, completeEdges(4), []int{0}); len(got) != 0 {
		t.Errorf("K4 is not 3-colorable, got restrictions %v", got)
	}
	if got := colorRestrictions(3, completeEdges(3), []int{0}); !reflect.DeepEqual(got, all) {
		t.Errorf("K3 vertex 0 takes every color, got %v", got)
	}
	if got := colorRestrictions(5, cycleEdges(5), []int{0}); !reflect.DeepEqual(got, all) {
		t.Errorf("C5 is 3-colorable, got %v", got)
	}
	// In K3 any two vertices take distinct colors, and every ordered pair
	// of distinct colors extends.
	want := [][]int32{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}}
	if got := colorRestrictions(3, completeEdges(3), []int{0, 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("K3 restricted to {0,1}: got %v, want %v", got, want)
	}
	// C4's opposite vertices 0 and 2 may share a color or not: all nine
	// pairs extend. In C5, vertices 0 and 1 are adjacent: six pairs.
	if got := colorRestrictions(4, cycleEdges(4), []int{0, 2}); len(got) != 9 {
		t.Errorf("C4 restricted to {0,2}: got %d rows, want 9", len(got))
	}
	if got := colorRestrictions(5, cycleEdges(5), []int{0, 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("C5 restricted to {0,1}: got %v, want %v", got, want)
	}
	// The wheel W5 (hub 0 on an odd rim) needs four colors.
	wheel := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}}
	if got := colorRestrictions(6, wheel, []int{1, 3}); len(got) != 0 {
		t.Errorf("odd wheel is not 3-colorable, got %v", got)
	}
}

func TestShapeReferencesByHand(t *testing.T) {
	// The directed triangle 0→1→2→0 has three rotations, and its only
	// closed 4-walks need a 4-cycle, so it has none.
	tri := newAdjacency([]pair{{0, 1}, {1, 2}, {2, 0}}, 3)
	if got, want := triangleAnswer(tri, 3), [][]int32{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("triangle: got %v, want %v", got, want)
	}
	if got := fourCycleAnswer(tri, 3); len(got) != 0 {
		t.Errorf("4-cycle on a triangle: got %v", got)
	}
	// 0→1→2→3→0 plus the chord 0→2: every vertex is on the 4-cycle.
	sq := newAdjacency([]pair{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {0, 2}}, 4)
	if got, want := fourCycleAnswer(sq, 4), [][]int32{{0}, {1}, {2}, {3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("4-cycle: got %v, want %v", got, want)
	}
	// Chain r0(x0,x1), r1(x1,x2), r2(x2,x3): head 5→0 and 6→9 (a dead
	// end); 0 fans out to 1 and 2, which meet at 3.
	r1 := newAdjacency([]pair{{0, 1}, {0, 2}}, 10)
	r2 := newAdjacency([]pair{{1, 3}, {2, 3}, {2, 4}}, 10)
	if got, want := chainAnswer([]pair{{5, 0}, {6, 9}}, []adjacency{r1, r2}), [][]int32{{5, 3}, {5, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("chain: got %v, want %v", got, want)
	}
	// Spider with two arms: hub 0 has leaves in both, hub 1 only in the
	// first.
	s0 := newAdjacency([]pair{{0, 7}, {1, 8}}, 2)
	s1 := newAdjacency([]pair{{0, 5}, {0, 6}}, 2)
	if got, want := spiderAnswer([]adjacency{s0, s1}, 2, []int{0, 1}), [][]int32{{0, 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("spider(h,a0): got %v, want %v", got, want)
	}
	if got, want := spiderAnswer([]adjacency{s0, s1}, 2, []int{2, 1}), [][]int32{{5, 7}, {6, 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("spider(a1,a0): got %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(v), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles: got %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartiles([]float64{16, 1, 8, 2, 4}), [3]float64{1.5, 4, 12}; got != want {
		t.Errorf("quartiles: got %v, want %v", got, want)
	}
}
