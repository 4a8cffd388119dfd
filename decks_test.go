package cntfet

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cntfet/internal/netlist"
)

// TestShippedDecksRun parses and executes every netlist under decks/
// end to end — the same path cmd/cntspice takes — and sanity-checks
// each circuit's headline behaviour.
func TestShippedDecksRun(t *testing.T) {
	if testing.Short() {
		t.Skip("deck simulations are not short")
	}
	checks := map[string]func(t *testing.T, out string){
		"inverter.cir":     checkInverterDeck,
		"nand.cir":         checkSwingDeck("v(out)"),
		"commonsource.cir": checkCommonSourceDeck,
		"ringosc.cir":      checkSwingDeck("v(a)"),
		"acstage.cir":      checkACStageDeck,
	}
	entries, err := os.ReadDir("decks")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no decks shipped")
	}
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("decks", name))
			if err != nil {
				t.Fatal(err)
			}
			deck, err := netlist.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			var b strings.Builder
			if err := deck.Run(context.Background(), &b); err != nil {
				t.Fatalf("run: %v", err)
			}
			check, ok := checks[name]
			if !ok {
				t.Fatalf("no behaviour check registered for %s", name)
			}
			check(t, b.String())
		})
	}
}

// csvColumn extracts a named column from the first CSV block in the
// output that contains it.
func csvColumn(t *testing.T, out, header string) []float64 {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, ln := range lines {
		cols := strings.Split(strings.TrimSpace(ln), ",")
		idx := -1
		for j, c := range cols {
			if c == header {
				idx = j
			}
		}
		if idx < 0 {
			continue
		}
		var vals []float64
		for _, row := range lines[i+1:] {
			f := strings.Split(strings.TrimSpace(row), ",")
			if len(f) != len(cols) {
				break
			}
			v, err := netlist.ParseValue(f[idx])
			if err != nil {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) > 0 {
			return vals
		}
	}
	t.Fatalf("column %q not found in output:\n%s", header, out)
	return nil
}

func checkInverterDeck(t *testing.T, out string) {
	vout := csvColumn(t, out, "v(out)")
	// DC sweep block comes first: rails at both ends.
	if vout[0] < 0.55 || vout[len(vout)-1] > 0.05 {
		t.Fatalf("inverter VTC rails: %g .. %g", vout[0], vout[len(vout)-1])
	}
}

func checkSwingDeck(col string) func(t *testing.T, out string) {
	return func(t *testing.T, out string) {
		v := csvColumn(t, out, col)
		mn, mx := v[0], v[0]
		for _, x := range v {
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		if mx-mn < 0.4 {
			t.Fatalf("%s swing only %g V", col, mx-mn)
		}
	}
}

func checkACStageDeck(t *testing.T, out string) {
	mags := csvColumn(t, out, "mag_out")
	// An amplifying stage: passband gain above 1, then rolloff through
	// the load pole by at least 20x across the sweep.
	if mags[0] < 1 {
		t.Fatalf("passband gain %g, want > 1", mags[0])
	}
	if mags[len(mags)-1] > mags[0]/20 {
		t.Fatalf("no rolloff: %g -> %g", mags[0], mags[len(mags)-1])
	}
}

func checkCommonSourceDeck(t *testing.T, out string) {
	// The reference-model stage and the fast-model stage must agree.
	d1 := csvColumn(t, out, "v(d1)")
	d2 := csvColumn(t, out, "v(d2)")
	for i := range d1 {
		diff := d1[i] - d2[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.03 {
			t.Fatalf("row %d: reference stage %g vs fast stage %g", i, d1[i], d2[i])
		}
	}
}
