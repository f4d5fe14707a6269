//go:build amd64

package aes

// hasAESNI reports whether the CPU has the AES instructions (and SSE4.1,
// which the counter mode uses to build its blocks), read once by CPUID
// at package init, so every run on a host makes the same choice.
var hasAESNI = cpuidAES()

func cpuidAES() bool

// encryptBlockAsm sets dst to the encryption of src under the nr-round
// key schedule xk (nr+1 round keys of 16 bytes). dst may equal src.
//
//go:noescape
func encryptBlockAsm(nr int, xk *byte, dst, src *byte)

// gctrBlocks XORs src with n blocks of GCM counter-mode keystream from
// the counter block ctr into dst (see aes_amd64.s). dst and src overlap
// exactly or not at all.
//
//go:noescape
func gctrBlocks(nr int, xk *byte, ctr *[BlockSize]byte, dst, src *byte, n int)
