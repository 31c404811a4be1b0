package dedup

import "testing"

func TestMark(t *testing.T) {
	var s Seen[int]
	steps := []struct {
		src  int
		seq  uint32
		want bool
	}{
		{7, 1, true},
		{7, 1, false},
		{9000, 1, true}, // a second source keeps its own set
		{7, 2, true},
		{9000, 1, false},
		{7, 1000, true}, // sparse jump grows the bitset
		{7, 1000, false},
		{7, 999, true},
		{3, 0, true},
		{3, 0, false},
	}
	for i, st := range steps {
		if got := s.Mark(st.src, st.seq); got != st.want {
			t.Fatalf("step %d: Mark(%d, %d) = %v, want %v", i, st.src, st.seq, got, st.want)
		}
	}
	if len(s.srcs) != 3 {
		t.Fatalf("tracked %d sources, want 3", len(s.srcs))
	}
}
