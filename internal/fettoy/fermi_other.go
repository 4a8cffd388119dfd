//go:build !amd64

package fettoy

func fermiAdd(acc, bs []float64, w, a float64) { fermiAddGeneric(acc, bs, w, a) }

func fermiAddPrime(acc, bs []float64, w, a float64) { fermiAddPrimeGeneric(acc, bs, w, a) }
