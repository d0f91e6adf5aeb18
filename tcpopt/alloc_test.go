package tcpopt

import (
	"testing"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// The allocation ceilings below pin the codec's cost on the simulators'
// puzzle handshake path: every challenged SYN-ACK is built with
// AppendChallenge and every SYN, SYN-ACK and ACK is searched with
// FindOption.

func TestFindOptionAllocFree(t *testing.T) {
	b, err := MarshalOptions([]Option{MSSOption(1460), WScaleOption(7), TimestampsOption(1, 2)})
	if err != nil {
		t.Fatalf("MarshalOptions: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, err := FindOption(b, KindWScale); !ok || err != nil {
			t.Fatal("WScale not found")
		}
	})
	if allocs != 0 {
		t.Errorf("FindOption allocates %v objects/op, want 0", allocs)
	}
}

func TestAppendChallengeAllocFree(t *testing.T) {
	p := puzzle.Params{K: 2, M: 17, L: 64}
	ch := puzzle.Challenge{Params: p, Preimage: make([]byte, p.SolutionBytes()), Timestamp: 9}
	buf := make([]byte, 0, ChallengeWireSize(p, true))
	allocs := testing.AllocsPerRun(100, func() {
		out, err := AppendChallenge(buf[:0], ch, true)
		if err != nil || len(out) != cap(buf) {
			t.Fatalf("AppendChallenge = %d bytes, %v; want %d", len(out), err, cap(buf))
		}
	})
	if allocs != 0 {
		t.Errorf("AppendChallenge into a pre-sized buffer allocates %v objects/op, want 0", allocs)
	}
}

func TestMarshalOptionsAllocsOnce(t *testing.T) {
	opts := []Option{MSSOption(1460), WScaleOption(7), TimestampsOption(1, 2), {Kind: KindSACKPermitted}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := MarshalOptions(opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("MarshalOptions allocates %v objects/op, want exactly 1", allocs)
	}
}
