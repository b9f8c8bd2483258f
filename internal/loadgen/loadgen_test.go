package loadgen

import (
	"testing"
	"time"

	"crat/internal/ptx"
)

func TestCorpusDeterministic(t *testing.T) {
	a := Corpus(3, 7, 64)
	b := Corpus(3, 7, 64)
	for i := range a {
		if a[i].PTX != b[i].PTX {
			t.Fatalf("corpus kernel %d differs between identical generations", i)
		}
		if _, err := ptx.ParseModule(a[i].PTX); err != nil {
			t.Fatalf("corpus kernel %d does not parse: %v", i, err)
		}
	}
	if a[0].PTX == a[1].PTX {
		t.Fatal("distinct seeds produced identical kernels")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		p    int
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(ds[:1], 99); got != time.Millisecond {
		t.Errorf("p99 of singleton = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of empty = %v", got)
	}
}
