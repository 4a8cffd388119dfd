package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("run: %v", errRun)
	}
	return out
}

func TestRunModel1Regions(t *testing.T) {
	out := capture(t, func() error { return run(1, false, false, 300, -0.32, 0.2, 11) })
	for _, want := range []string{"Model 1", "linear on", "quadratic on", "zero on", "fit quality", "vsc,qs_model"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunModel2Compare(t *testing.T) {
	out := capture(t, func() error { return run(2, true, false, 300, -0.32, 0.2, 11) })
	if !strings.Contains(out, "qd_theory") || !strings.Contains(out, "3rd order") {
		t.Fatalf("compare columns missing:\n%s", out)
	}
}

// number matches a decimal number as fmt and strconv print one.
var number = regexp.MustCompile(`[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?`)

// TestFiguresMatchResults holds results/fig{2..5}.txt to what cntfit
// prints for them: all text exactly, every number to 1e-12 relative
// (plus 1e-24 absolute, a millionth of a rounding step of the ~1e-10
// C/m charges, for the cancellation residuals near zero), so an
// architecture that fuses multiply-adds still passes.
func TestFiguresMatchResults(t *testing.T) {
	for _, fig := range []struct {
		file    string
		model   int
		compare bool
	}{
		{"fig2.txt", 1, false},
		{"fig3.txt", 2, false},
		{"fig4.txt", 1, true},
		{"fig5.txt", 2, true},
	} {
		t.Run(fig.file, func(t *testing.T) {
			want, err := os.ReadFile("../../results/" + fig.file)
			if err != nil {
				t.Fatal(err)
			}
			got := capture(t, func() error { return run(fig.model, fig.compare, false, 300, -0.32, 0.2, 41) })
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			if len(gotLines) != len(wantLines) {
				t.Fatalf("%d lines, results/%s has %d", len(gotLines), fig.file, len(wantLines))
			}
			for i, w := range wantLines {
				g := gotLines[i]
				if number.ReplaceAllString(g, "#") != number.ReplaceAllString(w, "#") {
					t.Fatalf("line %d text differs:\n got %s\nwant %s", i+1, g, w)
				}
				gn, wn := number.FindAllString(g, -1), number.FindAllString(w, -1)
				for j := range wn {
					a, errA := strconv.ParseFloat(gn[j], 64)
					b, errB := strconv.ParseFloat(wn[j], 64)
					if errA != nil || errB != nil {
						t.Fatalf("line %d: unparsable number %q or %q", i+1, gn[j], wn[j])
					}
					if math.Abs(a-b) > 1e-12*math.Max(math.Abs(a), math.Abs(b))+1e-24 {
						t.Fatalf("line %d number %d: got %s, want %s:\n got %s\nwant %s", i+1, j+1, gn[j], wn[j], g, w)
					}
				}
			}
		})
	}
}
