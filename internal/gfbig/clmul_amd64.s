//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// The host's carry-less multiply (PCLMULQDQ) as the paper's gf32bMult,
// 64 bits wide. Operands are the package's little-endian []uint32
// words read in place, two per 64-bit limb: n = (words+1)/2 limbs, the
// top one half full when words is odd. Only SSE2 and PCLMULQDQ are
// used; no instruction branches or indexes memory on operand bits.

// func cpuidCLMUL() bool
TEXT ·cpuidCLMUL(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $1, CX // CPUID.01H:ECX bit 1 is PCLMULQDQ
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func clmulFold(dst, x, y *uint32, p *foldPlan)
//
// dst = x·y mod P, or x·x when y is nil, for elements of p.words words.
// The full product is built in the frame by product scanning: the
// 128-bit partial products of column k (limb pairs i+j = k) are summed
// in a register, whose low half plus the previous column's high half is
// limb k; a square takes one partial product per limb, since squaring
// is linear over GF(2). The limbs wholly above bit m are then folded
// top down, limb j as its carry-less product with the field constant
// p.r xored in at limb j-p.lo, and finally the bits of the partial limb
// above m, as their product with p.r0 at limb 0 (see foldPlan). The
// operand limbs are copied to the frame first, so an odd top word is
// read as 32 bits and dst may alias x or y. The frame holds 16 limbs
// each of x and y (New caps m at 1024) and the 32-limb product.
TEXT ·clmulFold(SB), NOSPLIT, $512-32
	MOVQ p+24(FP), R12
	MOVQ foldPlan_words(R12), CX
	MOVQ CX, R8
	SHRQ $1, R8 // whole limbs per element
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	LEAQ 0(SP), R10   // x limbs
	LEAQ 128(SP), R11 // y limbs
	LEAQ 256(SP), R13 // product limbs
	XORQ BX, BX

copyx:
	CMPQ BX, R8
	JAE  copyxtop
	MOVQ (SI)(BX*8), AX
	MOVQ AX, (R10)(BX*8)
	INCQ BX
	JMP  copyx

copyxtop:
	TESTQ $1, CX
	JZ    copyy
	MOVL  (SI)(BX*8), AX
	MOVQ  AX, (R10)(BX*8)
	INCQ  BX

copyy:
	// BX = n, the limbs per element.
	TESTQ DI, DI
	JZ    square
	XORQ  DX, DX

copyyl:
	CMPQ DX, R8
	JAE  copyytop
	MOVQ (DI)(DX*8), AX
	MOVQ AX, (R11)(DX*8)
	INCQ DX
	JMP  copyyl

copyytop:
	TESTQ $1, CX
	JZ    product
	MOVL  (DI)(DX*8), AX
	MOVQ  AX, (R11)(DX*8)

product:
	// Column k runs i from max(0, k-(n-1)) to min(k, n-1).
	LEAQ -1(BX), R8        // n-1
	LEAQ -1(BX)(BX*1), DI  // 2n-1
	XORQ R9, R9            // k
	PXOR X1, X1            // high half of column k-1

column:
	MOVQ R9, SI
	SUBQ R8, SI
	JGE  hibound
	XORQ SI, SI

hibound:
	MOVQ R9, DX
	CMPQ DX, R8
	JLE  terms
	MOVQ R8, DX

terms:
	PXOR X0, X0

term:
	MOVQ      R9, AX
	SUBQ      SI, AX
	MOVQ      (R10)(SI*8), X2
	MOVQ      (R11)(AX*8), X3
	PCLMULQDQ $0x00, X3, X2
	PXOR      X2, X0
	INCQ      SI
	CMPQ      SI, DX
	JLE       term

	PXOR   X1, X0
	MOVQ   X0, (R13)(R9*8)
	PSRLDQ $8, X0
	MOVOU  X0, X1
	INCQ   R9
	CMPQ   R9, DI
	JLT    column

	MOVQ X1, (R13)(R9*8)
	JMP  fold

square:
	XORQ DX, DX
	MOVQ R13, DI

squarel:
	CMPQ      DX, BX
	JAE       fold
	MOVQ      (R10)(DX*8), X0
	PCLMULQDQ $0x00, X0, X0
	MOVOU     X0, (DI)
	ADDQ      $16, DI
	INCQ      DX
	JMP       squarel

fold:
	MOVQ foldPlan_hi(R12), R9 // j
	MOVQ foldPlan_lo(R12), R11
	MOVQ foldPlan_r(R12), X4
	MOVQ foldPlan_r+8(R12), X5

foldl:
	CMPQ      R9, R11
	JLT       partial
	MOVQ      (R13)(R9*8), X0
	MOVOU     X0, X1
	PCLMULQDQ $0x00, X4, X0
	PCLMULQDQ $0x00, X5, X1
	MOVOU     X1, X2
	PSLLDQ    $8, X2
	PXOR      X2, X0 // limbs j-lo, j-lo+1
	PSRLDQ    $8, X1 // limb j-lo+2
	MOVQ      R9, SI
	SUBQ      R11, SI
	MOVQ      X0, AX
	XORQ      AX, (R13)(SI*8)
	PSHUFD    $0x4e, X0, X0
	MOVQ      X0, AX
	XORQ      AX, 8(R13)(SI*8)
	MOVQ      X1, AX
	XORQ      AX, 16(R13)(SI*8)
	DECQ      R9
	JMP       foldl

partial:
	MOVQ  foldPlan_mr(R12), CX
	TESTQ CX, CX
	JZ    store
	MOVQ  foldPlan_mq(R12), SI
	MOVQ  (R13)(SI*8), AX
	MOVQ  AX, DX
	SHRQ  CX, AX // the bits at and above m
	MOVQ  $1, R9
	SHLQ  CX, R9
	DECQ  R9
	ANDQ  R9, DX
	MOVQ  DX, (R13)(SI*8)

	MOVQ      AX, X0
	MOVOU     X0, X1
	MOVQ      foldPlan_r0(R12), X4
	MOVQ      foldPlan_r0+8(R12), X5
	PCLMULQDQ $0x00, X4, X0
	PCLMULQDQ $0x00, X5, X1
	MOVOU     X1, X2
	PSLLDQ    $8, X2
	PXOR      X2, X0
	PSRLDQ    $8, X1
	MOVQ      X0, AX
	XORQ      AX, (R13)
	PSHUFD    $0x4e, X0, X0
	MOVQ      X0, AX
	XORQ      AX, 8(R13)
	MOVQ      X1, AX
	XORQ      AX, 16(R13)

store:
	MOVQ dst+0(FP), DI
	MOVQ foldPlan_words(R12), CX
	MOVQ CX, R8
	SHRQ $1, R8
	XORQ BX, BX

storel:
	CMPQ BX, R8
	JAE  storetop
	MOVQ (R13)(BX*8), AX
	MOVQ AX, (DI)(BX*8)
	INCQ BX
	JMP  storel

storetop:
	TESTQ $1, CX
	JZ    done
	MOVQ  (R13)(BX*8), AX
	MOVL  AX, (DI)(BX*8)

done:
	RET

// ghashPoly is x^128 + x^7 + x^2 + x + 1 in the reduction's
// bit-reflected form.
DATA ghashPoly<>+0(SB)/8, $0xc200000000000000
GLOBL ghashPoly<>(SB), RODATA|NOPTR, $8

// func ghashMul(x0, x1, h0, h1 uint64) (z0, z1 uint64)
//
// z = x·h in GHASH's field, elements as the block's big-endian halves
// (bit 63 of x0 is x^0). Read as one 128-bit integer such a block is
// the coefficient vector bit-reversed, so this is the byte-reflected
// method of Gueron and Kounavis without the byte swap: the integer
// product of the two reversed operands is the reversed field product
// shifted right by one; shift it back left, then fold its low 128 bits
// (x^128..x^255) into the high 128 in two multiplies by the reflected
// polynomial.
TEXT ·ghashMul(SB), NOSPLIT, $0-48
	MOVQ      x0+0(FP), X0
	MOVQ      x1+8(FP), X1
	MOVQ      h0+16(FP), X2
	MOVQ      h1+24(FP), X3
	MOVOU     X0, X4
	PCLMULQDQ $0x00, X2, X4 // x0·h0: bits 128..255
	MOVOU     X1, X5
	PCLMULQDQ $0x00, X3, X5 // x1·h1: bits 0..127
	PCLMULQDQ $0x00, X3, X0 // x0·h1
	PCLMULQDQ $0x00, X2, X1 // x1·h0
	PXOR      X1, X0        // middle: bits 64..191
	MOVOU     X0, X1
	PSLLDQ    $8, X1
	PXOR      X1, X5
	PSRLDQ    $8, X0
	PXOR      X0, X4

	// X4:X5 <<= 1 across all four 64-bit lanes.
	MOVOU  X5, X6
	PSRLQ  $63, X6
	MOVOU  X4, X7
	PSRLQ  $63, X7
	PSLLQ  $1, X5
	PSLLQ  $1, X4
	MOVOU  X6, X8
	PSLLDQ $8, X6 // bit 63 -> bit 64
	PSRLDQ $8, X8 // bit 127 -> bit 128
	PSLLDQ $8, X7 // bit 191 -> bit 192
	POR    X6, X5
	POR    X8, X4
	POR    X7, X4

	// Two-step reduction of the low half into the high half.
	MOVQ      ghashPoly<>+0(SB), X9
	MOVOU     X9, X6
	PCLMULQDQ $0x00, X5, X6
	PSHUFD    $0x4e, X5, X5
	PXOR      X6, X5
	MOVOU     X9, X6
	PCLMULQDQ $0x00, X5, X6
	PSHUFD    $0x4e, X5, X5
	PXOR      X6, X5
	PXOR      X4, X5

	MOVQ   X5, z1+40(FP)
	PSRLDQ $8, X5
	MOVQ   X5, z0+32(FP)
	RET
