package main

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"syscall"

	"github.com/tcppuzzles/tcppuzzles/puzzlenet"
)

// Failure classes of an honest real-tier attempt. Every failure falls in
// exactly one, so the classes sum to the failures.
const (
	failDialRefused    = "fail.dial_refused"
	failDialTimeout    = "fail.dial_timeout"
	failDialAddr       = "fail.dial_addr" // EADDRNOTAVAIL: no local port left
	failReset          = "fail.reset"
	failPreamble       = "fail.preamble"
	failRejectedPrefix = "fail.rejected."
	failEcho           = "fail.echo"
	failUnknown        = "fail.unknown"
)

func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) ||
		(errors.As(err, &ne) && ne.Timeout())
}

func isReset(err error) bool {
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNABORTED)
}

// classifyDial classifies an error from puzzlenet.Dialer.DialContext: the
// TCP dial failed, the connection was reset, the server sent REJECT, or
// the preamble failed some other way.
func classifyDial(err error) string {
	var rej *puzzlenet.RejectError
	if errors.As(err, &rej) {
		return failRejectedPrefix + rej.Reason.String()
	}
	if errors.Is(err, puzzlenet.ErrRejected) {
		return failRejectedPrefix + puzzlenet.RejectGeneric.String()
	}
	if isReset(err) {
		return failReset
	}
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		switch {
		case errors.Is(err, syscall.ECONNREFUSED):
			return failDialRefused
		case errors.Is(err, syscall.EADDRNOTAVAIL):
			return failDialAddr
		case isTimeout(err):
			return failDialTimeout
		}
		return failUnknown
	}
	// The dialer wraps every preamble failure with its package prefix.
	if errors.Is(err, puzzlenet.ErrProtocol) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || isTimeout(err) ||
		strings.HasPrefix(err.Error(), "puzzlenet: ") {
		return failPreamble
	}
	return failUnknown
}

// classifyEcho classifies a failure while echoing through the splice.
func classifyEcho(err error) string {
	if isReset(err) {
		return failReset
	}
	return failEcho
}
