//go:build !amd64

package aes

// hasAESNI is false off amd64: the AES-instruction kernels are amd64
// assembly, so Encrypt and GCM's counter mode run the Go word rounds.
const hasAESNI = false

const errNoAESNI = "aes: no AES instructions on this architecture"

func encryptBlockAsm(nr int, xk *byte, dst, src *byte) { panic(errNoAESNI) }

func gctrBlocks(nr int, xk *byte, ctr *[BlockSize]byte, dst, src *byte, n int) {
	panic(errNoAESNI)
}
