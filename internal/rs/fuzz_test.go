package rs

import (
	"slices"
	"testing"

	"repro/internal/gf"
	"repro/internal/gfpoly"
)

// fuzzRSCodes: one byte-symbol and one nibble-symbol code, built once.
var fuzzRSCodes = []*Code{
	Must(gf.MustDefault(8), 255, 223),
	Must(gf.MustDefault(4), 15, 9),
}

// FuzzRSRoundtrip drives encode -> corrupt -> decode with fuzzer-chosen
// message bytes and error pattern. Up to t injected errors must decode
// back to the message with the positions reported exactly; beyond t the
// decoder may fail but must never return success with a wrong message
// (miscorrection detection via the verify pass).
func FuzzRSRoundtrip(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint64(0), uint8(0))
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55}, uint64(1<<40|1<<3), uint8(1))
	f.Add([]byte("fuzz the decoder"), uint64(0xDEADBEEF), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, errBits uint64, codeSel uint8) {
		c := fuzzRSCodes[int(codeSel)%len(fuzzRSCodes)]
		msg := make([]gf.Elem, c.K)
		for i := range msg {
			if len(data) > 0 {
				msg[i] = gf.Elem(int(data[i%len(data)]) % c.F.Order())
			}
		}
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}

		// Corrupt: bit i of errBits flips symbol at a position derived from
		// i, value derived from the message. Up to 64 candidate positions,
		// truncated to at most t actual errors so decode must succeed.
		recv := make([]gf.Elem, c.N)
		copy(recv, cw)
		seen := map[int]bool{}
		var positions []int
		for i := 0; i < 64 && len(positions) < c.T; i++ {
			if errBits>>i&1 == 0 {
				continue
			}
			pos := (i*37 + int(errBits>>32)) % c.N
			if seen[pos] {
				continue
			}
			seen[pos] = true
			positions = append(positions, pos)
			recv[pos] ^= gf.Elem(i%(c.F.Order()-1) + 1)
		}

		res, err := c.Decode(recv)
		if err != nil {
			t.Fatalf("decode failed with %d <= t=%d errors: %v", len(positions), c.T, err)
		}
		if res.NumErrors != len(positions) {
			t.Fatalf("NumErrors = %d, want %d", res.NumErrors, len(positions))
		}
		for i, s := range msg {
			if res.Message[i] != s {
				t.Fatalf("message[%d] = %#x, want %#x", i, res.Message[i], s)
			}
		}
		for _, p := range positions {
			found := false
			for _, q := range res.Positions {
				if q == p {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("error position %d not reported (got %v)", p, res.Positions)
			}
		}

		// Heavier corruption: whatever happens, a success result must
		// round-trip its own re-encode (decoder soundness).
		for i := 0; i < c.T+2 && i < c.N; i++ {
			recv[(i*11)%c.N] ^= gf.Elem(int(errBits>>(i%56))%(c.F.Order()-1) + 1)
		}
		if res2, err := c.Decode(recv); err == nil {
			re, err := c.Encode(res2.Message)
			if err != nil {
				t.Fatal(err)
			}
			for i := range re {
				if re[i] != res2.Corrected[i] {
					t.Fatalf("accepted word is not a codeword at %d", i)
				}
			}
		}
	})
}

// fuzzDecodeCodes: the serving code, the t = 16 code and a nibble code.
var fuzzDecodeCodes = []*Code{
	Must(gf.MustDefault(8), 255, 239),
	Must(gf.MustDefault(8), 255, 223),
	Must(gf.MustDefault(4), 15, 9),
}

// refDecode decodes recv with the references only: the symbol-at-a-time
// syndromes, gfpoly's Berlekamp-Massey, brute-force roots, Forney, and
// a full re-syndrome check of the corrected word. ok is false for a
// rejected word.
func refDecode(c *Code, recv []gf.Elem) (corrected []gf.Elem, positions []int, ok bool) {
	corrected = slices.Clone(recv)
	synd := c.syndromesScalar(recv)
	if AllZero(synd) {
		return corrected, nil, true
	}
	lambda := gfpoly.BerlekampMassey(c.F, synd)
	nu := lambda.Degree()
	if nu > c.T {
		return nil, nil, false
	}
	positions = rootPositions(c, lambda)
	if len(positions) != nu {
		return nil, nil, false
	}
	vals, err := c.Forney(synd, lambda, positions)
	if err != nil {
		return nil, nil, false
	}
	for i, idx := range positions {
		corrected[idx] ^= vals[i]
	}
	if !AllZero(c.syndromesScalar(corrected)) {
		return nil, nil, false
	}
	return corrected, positions, true
}

// FuzzDecodeTo compares DecodeTo — remainder syndromes, packed Chien
// search, linearity check — with refDecode on fuzzer-chosen received
// words: a codeword of the message bytes with errors at the (position,
// value) byte pairs of errs, any number of them, so weights past t and
// past 2t are reached; or, when the top bit of codeSel is set, the data
// bytes themselves as the word. Both must agree on accept or reject,
// and on the corrections and their positions.
func FuzzDecodeTo(f *testing.F) {
	f.Add(uint8(0), []byte("uplink"), []byte{})
	f.Add(uint8(0), []byte("uplink"), []byte{0, 1, 254, 7, 100, 200})
	f.Add(uint8(1), []byte{0xff}, []byte{1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17})
	f.Add(uint8(2), []byte{3, 1, 4}, []byte{0, 9, 14, 1, 5, 5, 7, 2})
	f.Add(uint8(0x80), []byte("not a codeword at all"), []byte{})
	bufs := make([]*DecodeBuf, len(fuzzDecodeCodes))
	for i, c := range fuzzDecodeCodes {
		bufs[i] = c.NewDecodeBuf()
	}
	f.Fuzz(func(t *testing.T, codeSel uint8, data, errs []byte) {
		ci := int(codeSel&0x7f) % len(fuzzDecodeCodes)
		c, buf := fuzzDecodeCodes[ci], bufs[ci]
		order := c.F.Order()
		recv := make([]gf.Elem, c.N)
		if codeSel&0x80 != 0 {
			for i := range recv {
				if len(data) > 0 {
					recv[i] = gf.Elem(int(data[i%len(data)]) % order)
				}
			}
		} else {
			msg := make([]gf.Elem, c.K)
			for i := range msg {
				if len(data) > 0 {
					msg[i] = gf.Elem(int(data[i%len(data)]) % order)
				}
			}
			if _, err := c.EncodeTo(recv, msg); err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < len(errs); i += 2 {
				recv[int(errs[i])%c.N] ^= gf.Elem(int(errs[i+1]) % order)
			}
		}
		wantWord, wantPos, ok := refDecode(c, recv)
		res, err := c.DecodeTo(buf, recv)
		if (err == nil) != ok {
			t.Fatalf("%v: DecodeTo err = %v, reference accepts = %v", c, err, ok)
		}
		if !ok {
			return
		}
		if !slices.Equal(res.Corrected, wantWord) {
			t.Fatalf("%v: DecodeTo corrected %v, reference %v", c, res.Corrected, wantWord)
		}
		if !slices.Equal(res.Positions, wantPos) || res.NumErrors != len(wantPos) {
			t.Fatalf("%v: DecodeTo positions %v (%d errors), reference %v", c, res.Positions, res.NumErrors, wantPos)
		}
	})
}
