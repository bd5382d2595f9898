package gid

import "testing"

func TestIDStableWithinGoroutine(t *testing.T) {
	t.Parallel()
	if ID() == 0 {
		t.Fatal("ID() returned 0")
	}
	if ID() != ID() {
		t.Fatal("ID() not stable within one goroutine")
	}
}

func TestIDDistinctAcrossGoroutines(t *testing.T) {
	t.Parallel()
	mine := ID()
	ch := make(chan uint64, 1)
	go func() { ch <- ID() }()
	if other := <-ch; other == mine {
		t.Fatalf("two goroutines share ID %d", mine)
	}
}

func TestParseGoroutineID(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   string
		want uint64
	}{
		{"goroutine 1 [running]:", 1},
		{"goroutine 4711 [select]:", 4711},
		{"goroutine  [running]:", 0},
		{"not a stack", 0},
		{"goroutine x [running]:", 0},
		{"", 0},
	}
	for _, c := range cases {
		if got := parseGoroutineID([]byte(c.in)); got != c.want {
			t.Errorf("parseGoroutineID(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
