package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Median != 3 {
		t.Fatalf("median = %f", s.Median)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev = %f", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeInvariants(t *testing.T) {
	prop := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 &&
			s.Min <= s.Median && s.Median <= s.Max &&
			s.P90 >= s.Median-1e-9 && s.Stddev >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFitExact(t *testing.T) {
	var s Series
	for x := 1.0; x <= 8; x++ {
		s.Add(x, 3*x+2)
	}
	slope, intercept := LinearFit(s.Points)
	if math.Abs(slope-3) > 1e-9 || math.Abs(intercept-2) > 1e-9 {
		t.Fatalf("fit = %f, %f", slope, intercept)
	}
	if r2 := RSquared(s.Points); math.Abs(r2-1) > 1e-9 {
		t.Fatalf("R² = %f", r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	slope, intercept := LinearFit(nil)
	if slope != 0 || intercept != 0 {
		t.Fatal("empty fit should be zero")
	}
	// Constant series: slope 0, perfect fit.
	pts := []Point{{1, 5}, {2, 5}, {3, 5}}
	slope, intercept = LinearFit(pts)
	if slope != 0 || intercept != 5 {
		t.Fatalf("constant fit = %f, %f", slope, intercept)
	}
	if RSquared(pts) != 1 {
		t.Fatal("constant series should have R²=1")
	}
	// Vertical stack (all same x).
	vert := []Point{{2, 1}, {2, 3}}
	slope, _ = LinearFit(vert)
	if slope != 0 {
		t.Fatalf("vertical fit slope = %f", slope)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "rssi"
	s.Add(1, -20)
	s.Add(2, -25)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if p := s.Points; p[0] != (Point{1, -20}) || p[1] != (Point{2, -25}) {
		t.Fatalf("points = %v", p)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("hops", "delay_ms")
	tab.AddRow(1, 12.345)
	tab.AddRow(2, 20.0)
	out := tab.String()
	if !strings.Contains(out, "hops") || !strings.Contains(out, "12.35") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if tab.Rows() != 2 {
		t.Fatalf("rows = %d", tab.Rows())
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("x", 1)
	csv := tab.CSV()
	if csv != "a,b\nx,1\n" {
		t.Fatalf("csv = %q", csv)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(sorted, 0.9); q != 9 {
		t.Fatalf("p90 = %f", q)
	}
	if q := quantile(sorted, 0); q != 1 {
		t.Fatalf("p0 = %f", q)
	}
	if q := quantile(sorted, 1); q != 10 {
		t.Fatalf("p100 = %f", q)
	}
	if quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
}
