package plot

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v\n%s", err, svg[:min(300, len(svg))])
		}
	}
}

func sampleChart() *Chart {
	return &Chart{
		Title:  "CARBON convergence",
		XLabel: "evaluations",
		YLabel: "best F",
		Series: []Series{
			{Label: "UL fitness", X: []float64{0, 100, 200, 300}, Y: []float64{1, 4, 8, 9}},
			{Label: "gap", X: []float64{0, 100, 200, 300}, Y: []float64{9, 5, 3, 2}, Dash: true},
		},
	}
}

func TestSVGWellFormed(t *testing.T) {
	wellFormed(t, sampleChart().SVG())
}

func TestSVGContainsContent(t *testing.T) {
	svg := sampleChart().SVG()
	for _, want := range []string{
		"CARBON convergence", "evaluations", "best F",
		"UL fitness", "gap", "polyline", "stroke-dasharray",
	} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	if got := strings.Count(svg, "<polyline"); got != 2 {
		t.Fatalf("%d polylines, want 2", got)
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	c := &Chart{Title: `a<b & "c"`, Series: []Series{{Label: "x>y", X: []float64{0, 1}, Y: []float64{0, 1}}}}
	svg := c.SVG()
	wellFormed(t, svg)
	if strings.Contains(svg, "a<b") {
		t.Fatal("title not escaped")
	}
}

func TestEmptyChart(t *testing.T) {
	c := &Chart{Title: "empty"}
	wellFormed(t, c.SVG())
}

func TestFlatSeries(t *testing.T) {
	c := &Chart{Series: []Series{{Label: "flat", X: []float64{0, 1, 2}, Y: []float64{5, 5, 5}}}}
	wellFormed(t, c.SVG())
}

func TestNaNPointsSkipped(t *testing.T) {
	c := &Chart{Series: []Series{{
		Label: "holes",
		X:     []float64{0, 1, 2, 3},
		Y:     []float64{1, math.NaN(), 3, 4},
	}}}
	svg := c.SVG()
	wellFormed(t, svg)
	if strings.Contains(svg, "NaN") {
		t.Fatal("NaN leaked into SVG")
	}
}

func TestStack(t *testing.T) {
	svg := Stack(640, 280, sampleChart(), sampleChart())
	wellFormed(t, svg)
	if got := strings.Count(svg, "<polyline"); got != 4 {
		t.Fatalf("%d polylines in stack, want 4", got)
	}
	if got := strings.Count(svg, "<svg"); got != 1 {
		t.Fatalf("stack must be a single SVG document, got %d roots", got)
	}
}

func TestTicksCoverRange(t *testing.T) {
	cases := []struct{ lo, hi float64 }{
		{0, 10}, {0, 1}, {-5, 5}, {3, 3.001}, {0, 1e6}, {-1e-4, 1e-4}, {17, 93},
	}
	for _, c := range cases {
		ticks := Ticks(c.lo, c.hi, 6)
		if len(ticks) < 2 {
			t.Fatalf("[%v,%v]: only %d ticks", c.lo, c.hi, len(ticks))
		}
		for _, v := range ticks {
			if v < c.lo-1e-9*(math.Abs(c.lo)+1) || v > c.hi+1e-9*(math.Abs(c.hi)+1) {
				t.Fatalf("[%v,%v]: tick %v out of range", c.lo, c.hi, v)
			}
		}
		for i := 1; i < len(ticks); i++ {
			if ticks[i] <= ticks[i-1] {
				t.Fatalf("ticks not increasing: %v", ticks)
			}
		}
	}
}

func TestTicksDegenerate(t *testing.T) {
	if got := Ticks(5, 5, 6); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate ticks: %v", got)
	}
	if got := Ticks(10, 0, 4); len(got) < 2 {
		t.Fatalf("swapped range: %v", got)
	}
}

func TestTicksProperty(t *testing.T) {
	f := func(aRaw, bRaw int16) bool {
		lo, hi := float64(aRaw), float64(bRaw)
		ticks := Ticks(lo, hi, 5)
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, v := range ticks {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return len(ticks) >= 1 && len(ticks) <= 25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNiceStep(t *testing.T) {
	cases := map[float64]float64{
		0.7: 1, 1.2: 2, 3: 5, 7: 10, 15: 20, 42: 50, 99: 100, 0.03: 0.05,
	}
	for raw, want := range cases {
		if got := niceStep(raw); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("niceStep(%v) = %v, want %v", raw, got, want)
		}
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1500000: "1.5e+06",
		250:     "250",
		0.5:     "0.5",
		2:       "2",
	}
	for v, want := range cases {
		if got := formatTick(v); got != want {
			t.Fatalf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
}
