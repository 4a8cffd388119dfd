//go:build ignore

// gen_pow10.go writes pow10.go, the power-of-ten table AppendFloat
// multiplies by. Run it from this directory with
//
//	go generate
//
// Entry k−kMin holds g = ⌊β⌋ + 1, where 10^−k = β·2^r with
// 2^125 ≤ β < 2^126, split as g = hi·2^64 + lo.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math/big"
	"os"
)

const kMin, kMax = -324, 292

// pow10Entry returns g for 10^−k, computed exactly.
func pow10Entry(k int) *big.Int {
	g := new(big.Int)
	if e := -k; e >= 0 {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(e)), nil)
		if shift := p.BitLen() - 126; shift > 0 {
			g.Rsh(p, uint(shift))
		} else {
			g.Lsh(p, uint(-shift))
		}
	} else {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-e)), nil)
		num := new(big.Int).Lsh(big.NewInt(1), uint(125+p.BitLen()))
		g.Quo(num, p)
	}
	return g.Add(g, big.NewInt(1))
}

func main() {
	var b bytes.Buffer
	b.WriteString("// Code generated by gen_pow10.go; DO NOT EDIT.\n\n")
	b.WriteString("package jsonenc\n\n")
	fmt.Fprintf(&b, "// pow10 holds, for k in [%d, %d], g = ⌊β⌋ + 1 as {hi, lo}\n", kMin, kMax)
	b.WriteString("// 64-bit words, where 10^−k = β·2^r and 2^125 ≤ β < 2^126.\n")
	fmt.Fprintf(&b, "var pow10 = [%d][2]uint64{\n", kMax-kMin+1)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1))
	for k := kMin; k <= kMax; k++ {
		g := pow10Entry(k)
		hi := new(big.Int).Rsh(g, 64)
		lo := new(big.Int).And(g, mask)
		fmt.Fprintf(&b, "\t{%#016x, %#016x}, // %d\n", hi.Uint64(), lo.Uint64(), k)
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("pow10.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
