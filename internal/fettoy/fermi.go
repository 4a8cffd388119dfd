package fettoy

// The two Fermi-factor kernels of the batch samplers (SampleNS and
// sampleN). Each adds one rule node's contribution to every sample of a
// batch; fermiAdd and fermiAddPrime are these loops, or, on amd64,
// assembly that runs the same IEEE operations in the same order on two
// samples at once (fermi_amd64.s), so every architecture gets the same
// bits. The products are rounded explicitly (float64(a*b)) so no
// compiler may fuse them into the following add.

// fermiAddGeneric adds w/(1 + a·bs[i]), node weight times Fermi
// factor, to acc[i] for every i of bs. acc must be at least as long as
// bs and must not overlap it unless it is bs itself.
func fermiAddGeneric(acc, bs []float64, w, a float64) {
	acc = acc[:len(bs)]
	for i, b := range bs {
		acc[i] += w / (1 + float64(a*b))
	}
}

// fermiAddPrimeGeneric adds w/(2 + ab + 1/ab) with ab = a·bs[i] to
// acc[i] for every i of bs: node weight times kT times the Fermi
// factor's derivative in u, finite for every ab in [0, +Inf]. acc is
// as for fermiAddGeneric.
func fermiAddPrimeGeneric(acc, bs []float64, w, a float64) {
	acc = acc[:len(bs)]
	for i, b := range bs {
		ab := float64(a * b)
		acc[i] += w / (2 + ab + 1/ab)
	}
}
