//go:build amd64

package gfbig

// hasCLMUL reports whether the CPU has PCLMULQDQ, read once by CPUID at
// package init, so every run on a host makes the same choice.
var hasCLMUL = cpuidCLMUL()

func cpuidCLMUL() bool

// clmulFold sets dst to x·y reduced by the fold plan p, or to x·x when
// y is nil; each is p.words words long, and dst may alias x or y.
//
//go:noescape
func clmulFold(dst, x, y *uint32, p *foldPlan)

func ghashMul(x0, x1, h0, h1 uint64) (z0, z1 uint64)
