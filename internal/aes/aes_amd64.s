//go:build amd64

#include "textflag.h"

// The host's AES instructions (AES-NI) as the block cipher behind
// Encrypt and GCM's counter mode. xk points at the rounds+1 round keys
// of expandKey, 16 bytes each in block byte order, which is the order
// AESENC takes them in. A block takes nr-1 AESENC rounds and one
// AESENCLAST; there is no table and no branch on key or data.

// func cpuidAES() bool
TEXT ·cpuidAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, AX
	SHRL $25, AX // CPUID.01H:ECX bit 25 is AES-NI
	ANDL $1, AX
	SHRL $19, CX // bit 19 is SSE4.1, whose PINSRD builds counter blocks
	ANDL CX, AX
	MOVB AX, ret+0(FP)
	RET

// func encryptBlockAsm(nr int, xk *byte, dst, src *byte)
TEXT ·encryptBlockAsm(SB), NOSPLIT, $0-32
	MOVQ   nr+0(FP), CX
	MOVQ   xk+8(FP), AX
	MOVQ   dst+16(FP), DX
	MOVQ   src+24(FP), BX
	MOVOU  (BX), X0
	MOVOU  (AX), X1
	PXOR   X1, X0
	ADDQ   $16, AX
	DECQ   CX

block1:
	MOVOU  (AX), X1
	AESENC X1, X0
	ADDQ   $16, AX
	DECQ   CX
	JNZ    block1
	MOVOU      (AX), X1
	AESENCLAST X1, X0
	MOVOU      X0, (DX)
	RET

// func gctrBlocks(nr int, xk *byte, ctr *[16]byte, dst, src *byte, n int)
//
// dst = src XOR the keystream of n whole blocks, in GCM's counter mode:
// block i encrypts ctr with its last four bytes, a big-endian counter,
// advanced by i modulo 2^32 (inc32; the first twelve bytes never
// change). Eight blocks go through the rounds together, so the AESENC
// latency overlaps; the remaining blocks go one at a time. Each block
// of src is loaded before the same block of dst is stored, so dst may
// be src exactly.
TEXT ·gctrBlocks(SB), NOSPLIT, $0-48
	MOVQ  nr+0(FP), CX
	MOVQ  xk+8(FP), AX
	MOVQ  ctr+16(FP), BX
	MOVQ  dst+24(FP), DX
	MOVQ  src+32(FP), SI
	MOVQ  n+40(FP), DI
	MOVOU (BX), X9
	MOVL  12(BX), R8
	BSWAPL R8 // the counter
	DECQ  CX  // AESENC rounds per block
	CMPQ  DI, $8
	JB    tail

loop8:
	MOVOU  X9, X0
	MOVL   R8, R9
	BSWAPL R9
	PINSRD $3, R9, X0
	ADDL   $1, R8
	MOVOU  X9, X1
	MOVL   R8, R9
	BSWAPL R9
	PINSRD $3, R9, X1
	ADDL   $1, R8
	MOVOU  X9, X2
	MOVL   R8, R9
	BSWAPL R9
	PINSRD $3, R9, X2
	ADDL   $1, R8
	MOVOU  X9, X3
	MOVL   R8, R9
	BSWAPL R9
	PINSRD $3, R9, X3
	ADDL   $1, R8
	MOVOU  X9, X4
	MOVL   R8, R9
	BSWAPL R9
	PINSRD $3, R9, X4
	ADDL   $1, R8
	MOVOU  X9, X5
	MOVL   R8, R9
	BSWAPL R9
	PINSRD $3, R9, X5
	ADDL   $1, R8
	MOVOU  X9, X6
	MOVL   R8, R9
	BSWAPL R9
	PINSRD $3, R9, X6
	ADDL   $1, R8
	MOVOU  X9, X7
	MOVL   R8, R9
	BSWAPL R9
	PINSRD $3, R9, X7
	ADDL   $1, R8

	MOVOU (AX), X8
	PXOR  X8, X0
	PXOR  X8, X1
	PXOR  X8, X2
	PXOR  X8, X3
	PXOR  X8, X4
	PXOR  X8, X5
	PXOR  X8, X6
	PXOR  X8, X7
	LEAQ  16(AX), R10
	MOVQ  CX, R11

rounds8:
	MOVOU  (R10), X8
	AESENC X8, X0
	AESENC X8, X1
	AESENC X8, X2
	AESENC X8, X3
	AESENC X8, X4
	AESENC X8, X5
	AESENC X8, X6
	AESENC X8, X7
	ADDQ   $16, R10
	DECQ   R11
	JNZ    rounds8
	MOVOU      (R10), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3
	AESENCLAST X8, X4
	AESENCLAST X8, X5
	AESENCLAST X8, X6
	AESENCLAST X8, X7

	MOVOU 0(SI), X8
	PXOR  X8, X0
	MOVOU X0, 0(DX)
	MOVOU 16(SI), X8
	PXOR  X8, X1
	MOVOU X1, 16(DX)
	MOVOU 32(SI), X8
	PXOR  X8, X2
	MOVOU X2, 32(DX)
	MOVOU 48(SI), X8
	PXOR  X8, X3
	MOVOU X3, 48(DX)
	MOVOU 64(SI), X8
	PXOR  X8, X4
	MOVOU X4, 64(DX)
	MOVOU 80(SI), X8
	PXOR  X8, X5
	MOVOU X5, 80(DX)
	MOVOU 96(SI), X8
	PXOR  X8, X6
	MOVOU X6, 96(DX)
	MOVOU 112(SI), X8
	PXOR  X8, X7
	MOVOU X7, 112(DX)
	ADDQ  $128, SI
	ADDQ  $128, DX
	SUBQ  $8, DI
	CMPQ  DI, $8
	JAE   loop8

tail:
	TESTQ DI, DI
	JZ    done

loop1:
	MOVOU  X9, X0
	MOVL   R8, R9
	BSWAPL R9
	PINSRD $3, R9, X0
	ADDL   $1, R8
	MOVOU  (AX), X8
	PXOR   X8, X0
	LEAQ   16(AX), R10
	MOVQ   CX, R11

rounds1:
	MOVOU  (R10), X8
	AESENC X8, X0
	ADDQ   $16, R10
	DECQ   R11
	JNZ    rounds1
	MOVOU      (R10), X8
	AESENCLAST X8, X0
	MOVOU      (SI), X8
	PXOR       X8, X0
	MOVOU      X0, (DX)
	ADDQ       $16, SI
	ADDQ       $16, DX
	DECQ       DI
	JNZ        loop1

done:
	RET
