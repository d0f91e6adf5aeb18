package tcpopt

import (
	"bytes"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// FuzzChallengeRoundTrip fuzzes the challenge codec constructively: every
// valid (k, m, l) challenge must survive the full wire path — Encode →
// MarshalOptions → FindOption → ParseChallenge — bit-for-bit, with and
// without an embedded timestamp, and the append-style AppendChallenge must
// produce exactly the bytes of Encode → MarshalOptions. This is the
// encode/decode contract the simulated kernels and the puzzlenet preamble
// both build on; FuzzParseChallenge covers the adversarial direction.
func FuzzChallengeRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(17), uint8(32), []byte("preimage-bytes--"), uint32(7), true)
	f.Add(uint8(1), uint8(8), uint8(32), []byte{1, 2, 3, 4}, uint32(0), false)
	f.Add(uint8(4), uint8(1), uint8(8), []byte{0xff}, uint32(1<<31), true)
	f.Add(uint8(3), uint8(64), uint8(64), []byte{}, uint32(0xffffffff), false)
	f.Fuzz(func(t *testing.T, k, m, l uint8, pre []byte, ts uint32, embedTS bool) {
		params := puzzle.Params{K: k, M: m, L: l}
		if params.Validate() != nil {
			return
		}
		preimage := make([]byte, params.SolutionBytes())
		copy(preimage, pre)
		ch := puzzle.Challenge{Params: params, Preimage: preimage, Timestamp: ts}
		opt, err := EncodeChallenge(ch, embedTS)
		if err != nil {
			t.Fatalf("EncodeChallenge(%+v): %v", params, err)
		}
		raw, err := MarshalOptions([]Option{opt})
		if err != nil {
			t.Fatalf("MarshalOptions: %v", err)
		}
		appended, err := AppendChallenge(nil, ch, embedTS)
		if err != nil {
			t.Fatalf("AppendChallenge: %v", err)
		}
		if !bytes.Equal(appended, raw) {
			t.Fatalf("AppendChallenge %x, MarshalOptions(EncodeChallenge) %x", appended, raw)
		}
		// Appending after existing bytes pads relative to the appended
		// area and leaves the prefix alone.
		prefix := []byte{KindNOP, KindNOP, KindNOP}
		after, err := AppendChallenge(bytes.Clone(prefix), ch, embedTS)
		if err != nil {
			t.Fatalf("AppendChallenge after prefix: %v", err)
		}
		if !bytes.Equal(after[:len(prefix)], prefix) || !bytes.Equal(after[len(prefix):], raw) {
			t.Fatalf("AppendChallenge after prefix %x, want %x+%x", after, prefix, raw)
		}
		got, ok, err := FindOption(raw, KindChallenge)
		if err != nil || !ok {
			t.Fatalf("challenge option lost in marshal round-trip: %v, %v", ok, err)
		}
		dec, err := ParseChallenge(got)
		if err != nil {
			t.Fatalf("ParseChallenge: %v", err)
		}
		if dec.Challenge.Params != params {
			t.Fatalf("params %+v, want %+v", dec.Challenge.Params, params)
		}
		if !bytes.Equal(dec.Challenge.Preimage, preimage) {
			t.Fatalf("preimage %x, want %x", dec.Challenge.Preimage, preimage)
		}
		if dec.HasTimestamp != embedTS {
			t.Fatalf("HasTimestamp = %v, want %v", dec.HasTimestamp, embedTS)
		}
		if embedTS && dec.Challenge.Timestamp != ts {
			t.Fatalf("timestamp %d, want %d", dec.Challenge.Timestamp, ts)
		}
	})
}

// FuzzFindOption checks the in-place lookup differentially against the
// slice decoder on arbitrary bytes: for every kind the simulators look up,
// FindOption must fail exactly when ParseOptions does (with the same
// error), and otherwise return ParseOptions' first option of that kind —
// the same bytes of the input, not a copy.
func FuzzFindOption(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{KindMSS, 4, 0x05, 0xb4, KindWScale, 3, 7, KindNOP})
	f.Add([]byte{KindChallenge, 11, 2, 17, 32, 1, 2, 3, 4, 0, 0, 0, 42, KindNOP})
	f.Add([]byte{KindNOP, KindEOL, KindSolution, 2})
	f.Add([]byte{KindMSS, 4, 0x05, 0xb4, KindMSS, 4, 0x02, 0x18, KindWScale, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, perr := ParseOptions(data)
		for _, kind := range []uint8{KindMSS, KindWScale, KindChallenge, KindSolution} {
			got, ok, err := FindOption(data, kind)
			if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
				t.Fatalf("kind 0x%02x: FindOption error %v, ParseOptions error %v", kind, err, perr)
			}
			if err != nil {
				if ok || got.Kind != 0 || got.Data != nil {
					t.Fatalf("kind 0x%02x: FindOption returned %+v, %v alongside an error", kind, got, ok)
				}
				continue
			}
			var want Option
			wantOK := false
			for _, o := range opts {
				if o.Kind == kind {
					want, wantOK = o, true
					break
				}
			}
			if ok != wantOK || got.Kind != want.Kind || len(got.Data) != len(want.Data) {
				t.Fatalf("kind 0x%02x: FindOption %+v, %v; ParseOptions first match %+v, %v",
					kind, got, ok, want, wantOK)
			}
			if len(got.Data) > 0 && &got.Data[0] != &want.Data[0] {
				t.Fatalf("kind 0x%02x: FindOption Data does not alias the same input bytes", kind)
			}
		}
	})
}

// FuzzParseOptions exercises the options parser on arbitrary bytes: it must
// never panic, and anything it parses must re-marshal and re-parse to the
// same structure.
func FuzzParseOptions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{KindNOP, KindNOP, KindEOL})
	f.Add([]byte{KindMSS, 4, 0x05, 0xb4})
	f.Add([]byte{KindChallenge, 3, 0xff})
	f.Add([]byte{KindSolution, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, err := ParseOptions(data)
		if err != nil {
			return
		}
		remarshalled, err := MarshalOptions(opts)
		if err != nil {
			// Parsed options can exceed marshal limits (e.g. >40 bytes of
			// input); that is allowed.
			return
		}
		again, err := ParseOptions(remarshalled)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(opts) {
			t.Fatalf("round trip changed option count: %d → %d", len(opts), len(again))
		}
		for i := range opts {
			if again[i].Kind != opts[i].Kind || string(again[i].Data) != string(opts[i].Data) {
				t.Fatalf("option %d changed: %+v → %+v", i, opts[i], again[i])
			}
		}
	})
}

// FuzzParseChallenge exercises the challenge block decoder.
func FuzzParseChallenge(f *testing.F) {
	valid, _ := EncodeChallenge(puzzle.Challenge{
		Params:    puzzle.Params{K: 2, M: 8, L: 32},
		Timestamp: 42,
		Preimage:  []byte{1, 2, 3, 4},
	}, true)
	f.Add(valid.Data)
	f.Add([]byte{})
	f.Add([]byte{2, 8, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := ParseChallenge(Option{Kind: KindChallenge, Data: data})
		if err != nil {
			return
		}
		// Whatever parsed must encode back losslessly.
		opt, err := EncodeChallenge(blk.Challenge, blk.HasTimestamp)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ParseChallenge(opt)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Challenge.Params != blk.Challenge.Params {
			t.Fatalf("params changed: %v → %v", blk.Challenge.Params, again.Challenge.Params)
		}
	})
}

// FuzzParseSolution exercises the solution block decoder against the
// default server parameters.
func FuzzParseSolution(f *testing.F) {
	params := puzzle.Params{K: 2, M: 17, L: 32}
	sol := puzzle.Solution{
		Params:    params,
		Timestamp: 7,
		Solutions: [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}},
	}
	valid, _ := EncodeSolution(SolutionBlock{MSS: 1460, WScale: 7, HasTimestamp: true, Solution: sol})
	f.Add(valid.Data)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := ParseSolution(Option{Kind: KindSolution, Data: data}, params)
		if err != nil {
			return
		}
		if len(blk.Solution.Solutions) != int(params.K) {
			t.Fatalf("parsed %d solutions, want %d", len(blk.Solution.Solutions), params.K)
		}
		for _, s := range blk.Solution.Solutions {
			if len(s) != params.SolutionBytes() {
				t.Fatalf("solution length %d, want %d", len(s), params.SolutionBytes())
			}
		}
	})
}
