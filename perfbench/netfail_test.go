package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/puzzlenet"
	"syscall"
)

func dialErr(errno syscall.Errno) error {
	return &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", errno)}
}

func TestClassifyDial(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"refused", dialErr(syscall.ECONNREFUSED), failDialRefused},
		{"addr", dialErr(syscall.EADDRNOTAVAIL), failDialAddr},
		{"dial deadline", &net.OpError{Op: "dial", Net: "tcp", Err: os.ErrDeadlineExceeded}, failDialTimeout},
		{"reset in preamble", fmt.Errorf("puzzlenet: read greeting: %w",
			&net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.ECONNRESET)}), failReset},
		{"preamble eof", fmt.Errorf("puzzlenet: read verdict: %w", io.EOF), failPreamble},
		{"preamble deadline", fmt.Errorf("puzzlenet: read verdict: %w",
			&net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}), failPreamble},
		{"protocol", fmt.Errorf("puzzlenet: unexpected frame 0x09: %w", puzzlenet.ErrProtocol), failPreamble},
		{"bare rejected", puzzlenet.ErrRejected, failRejectedPrefix + "rejected"},
		{"dial other", dialErr(syscall.ENETUNREACH), failUnknown},
		{"unknown", fmt.Errorf("something else"), failUnknown},
	}
	for _, r := range []puzzlenet.RejectReason{
		puzzlenet.RejectGeneric, puzzlenet.RejectBadSolution, puzzlenet.RejectExpired,
		puzzlenet.RejectBusy, puzzlenet.RejectThrottled,
	} {
		cases = append(cases, struct {
			name string
			err  error
			want string
		}{"reject " + r.String(), &puzzlenet.RejectError{Reason: r}, failRejectedPrefix + r.String()})
	}
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
	}
	for _, c := range cases {
		got := classifyDial(c.err)
		if got != c.want {
			t.Errorf("%s: classifyDial(%v) = %q, want %q", c.name, c.err, got, c.want)
		}
		if !known[got] {
			t.Errorf("%s: class %q is not a reported per-layer metric", c.name, got)
		}
	}
}

func TestClassifyEcho(t *testing.T) {
	if got := classifyEcho(io.ErrUnexpectedEOF); got != failEcho {
		t.Errorf("short echo classified %q, want %q", got, failEcho)
	}
	reset := &net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.ECONNRESET)}
	if got := classifyEcho(reset); got != failReset {
		t.Errorf("reset echo classified %q, want %q", got, failReset)
	}
}

// TestClassifyLiveRefused dials a loopback port nothing listens on.
func TestClassifyLiveRefused(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	d := &puzzlenet.Dialer{}
	_, err = d.Dial("tcp", addr)
	if err == nil {
		t.Skip("port was reused before the dial")
	}
	if got := classifyDial(err); got != failDialRefused {
		t.Errorf("refused dial classified %q (%v)", got, err)
	}
}
