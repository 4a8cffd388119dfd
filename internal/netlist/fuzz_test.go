package netlist

import (
	"context"
	"math"
	"strings"
	"testing"
)

// FuzzParseValue: the SPICE number parser must never panic and must
// return finite values for whatever it accepts.
func FuzzParseValue(f *testing.F) {
	for _, seed := range []string{
		"10", "1k", "2.5meg", "10pF", "-0.32", "1e-9", "", "abc",
		"1..2", "--3", "1e", "meg", "0x10", "1e308k", "+.5u",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseValue(s)
		if err != nil {
			return
		}
		if math.IsNaN(v) {
			t.Fatalf("ParseValue(%q) accepted NaN", s)
		}
	})
}

// FuzzParse: arbitrary deck text must either parse or error, never
// panic; parsed decks must be runnable or fail with an error (no
// panics in analysis dispatch either).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"t\nR1 a 0 1k\nV1 a 0 1\n.op\n",
		"t\n.model m cnt level=2\nM1 d g 0 m\nVD d 0 0.5\nVG g 0 0.5\n.op\n",
		"t\nV1 a 0 PULSE(0 1 0 1n 1n 5n 10n)\nR1 a 0 1k\n.tran 1n 10n\n",
		"t\nV1 a 0 SIN(0 1 1meg)\nR1 a 0 1k\n.ac V1 dec 5 1k 1meg\n.print v(a)\n",
		".op",
		"*comment only\n",
		"t\nE1 a 0 b 0 2\nG1 c 0 b 0 1m\nV1 b 0 1\nR1 a 0 1\nR2 c 0 1\nR3 b 0 1\n.op\n",
		"t\nD1 a 0 is=1e-14\nV1 a 0 1\n.op\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Keep runaway transient decks cheap: cap the text size.
		if len(src) > 2000 {
			return
		}
		deck, err := Parse(src)
		if err != nil {
			return
		}
		// Guard against expensive analyses the fuzzer may synthesise:
		// only run decks whose transients stay tiny and whose sweeps
		// are bounded.
		for _, a := range deck.Analyses {
			if a.Kind == "tran" && (a.TStep <= 0 || a.TStop/a.TStep > 500) {
				return
			}
			if a.Kind == "dc" && a.Step != 0 && math.Abs((a.To-a.From)/a.Step) > 500 {
				return
			}
			if a.Kind == "ac" && a.PerDecade > 50 {
				return
			}
		}
		var b strings.Builder
		_ = deck.Run(context.Background(), &b) // errors fine; panics are failures
	})
}
