#include "textflag.h"

// Both kernels take two samples per packed instruction and finish an
// odd length with one scalar step. Each lane runs the multiply, adds
// and divides of the Go loop (fermi.go) in its order and with its
// operand order, each rounded on its own, so the results match it bit
// for bit. SSE2 is in every amd64 CPU, so there is no feature check.
// Packed loads and stores are unaligned (MOVUPD): the slices are only
// 8-byte aligned.

// func fermiAdd(acc, bs []float64, w, a float64)
TEXT ·fermiAdd(SB), NOSPLIT, $0-64
	MOVQ     acc_base+0(FP), DI
	MOVQ     bs_base+24(FP), SI
	MOVQ     bs_len+32(FP), CX
	MOVSD    w+48(FP), X0
	UNPCKLPD X0, X0               // {w, w}
	MOVSD    a+56(FP), X1
	UNPCKLPD X1, X1               // {a, a}
	MOVSD    $1.0, X2
	UNPCKLPD X2, X2               // {1, 1}
	XORQ     AX, AX
	MOVQ     CX, DX
	ANDQ     $-2, DX              // end of the pairs

pairs:
	CMPQ     AX, DX
	JGE      tail
	MOVUPD   (SI)(AX*8), X3
	MULPD    X1, X3               // b·a
	ADDPD    X2, X3               // ab + 1
	MOVAPD   X0, X4
	DIVPD    X3, X4               // w / (ab + 1)
	MOVUPD   (DI)(AX*8), X5
	ADDPD    X5, X4               // q + acc
	MOVUPD   X4, (DI)(AX*8)
	ADDQ     $2, AX
	JMP      pairs

tail:
	CMPQ     AX, CX
	JGE      done
	MOVSD    (SI)(AX*8), X3
	MULSD    X1, X3
	ADDSD    X2, X3
	MOVAPD   X0, X4
	DIVSD    X3, X4
	ADDSD    (DI)(AX*8), X4
	MOVSD    X4, (DI)(AX*8)

done:
	RET

// func fermiAddPrime(acc, bs []float64, w, a float64)
TEXT ·fermiAddPrime(SB), NOSPLIT, $0-64
	MOVQ     acc_base+0(FP), DI
	MOVQ     bs_base+24(FP), SI
	MOVQ     bs_len+32(FP), CX
	MOVSD    w+48(FP), X0
	UNPCKLPD X0, X0               // {w, w}
	MOVSD    a+56(FP), X1
	UNPCKLPD X1, X1               // {a, a}
	MOVSD    $1.0, X2
	UNPCKLPD X2, X2               // {1, 1}
	MOVSD    $2.0, X6
	UNPCKLPD X6, X6               // {2, 2}
	XORQ     AX, AX
	MOVQ     CX, DX
	ANDQ     $-2, DX              // end of the pairs

ppairs:
	CMPQ     AX, DX
	JGE      ptail
	MOVUPD   (SI)(AX*8), X3
	MULPD    X1, X3               // ab = b·a
	MOVAPD   X6, X4
	ADDPD    X3, X4               // 2 + ab
	MOVAPD   X2, X5
	DIVPD    X3, X5               // 1 / ab
	ADDPD    X5, X4               // (2 + ab) + 1/ab
	MOVAPD   X0, X3
	DIVPD    X4, X3               // w / (2 + ab + 1/ab)
	MOVUPD   (DI)(AX*8), X5
	ADDPD    X5, X3               // q + acc
	MOVUPD   X3, (DI)(AX*8)
	ADDQ     $2, AX
	JMP      ppairs

ptail:
	CMPQ     AX, CX
	JGE      pdone
	MOVSD    (SI)(AX*8), X3
	MULSD    X1, X3
	MOVAPD   X6, X4
	ADDSD    X3, X4
	MOVAPD   X2, X5
	DIVSD    X3, X5
	ADDSD    X5, X4
	MOVAPD   X0, X3
	DIVSD    X4, X3
	ADDSD    (DI)(AX*8), X3
	MOVSD    X3, (DI)(AX*8)

pdone:
	RET
