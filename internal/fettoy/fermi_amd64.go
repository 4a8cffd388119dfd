package fettoy

// fermiAdd is fermiAddGeneric in SSE2 assembly; len(acc) ≥ len(bs) is
// the caller's to hold. go:noescape keeps the samplers' stack scratch
// off the heap.
//
//go:noescape
func fermiAdd(acc, bs []float64, w, a float64)

// fermiAddPrime is fermiAddPrimeGeneric in SSE2 assembly, under the
// same contract as fermiAdd.
//
//go:noescape
func fermiAddPrime(acc, bs []float64, w, a float64)
