//go:build !amd64

package gfbig

// hasCLMUL is false off amd64: the hardware kernels are amd64 assembly,
// so MulTo, SquareTo and GHASH run their Go paths.
const hasCLMUL = false

const errNoCLMUL = "gfbig: no carry-less multiply instruction on this architecture"

func clmulFold(dst, x, y *uint32, p *foldPlan) { panic(errNoCLMUL) }

func ghashMul(x0, x1, h0, h1 uint64) (z0, z1 uint64) { panic(errNoCLMUL) }
