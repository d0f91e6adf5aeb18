package tcpopt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// TCP option kinds handled by this package.
const (
	KindEOL           = 0x00
	KindNOP           = 0x01
	KindMSS           = 0x02
	KindWScale        = 0x03
	KindSACKPermitted = 0x04
	KindTimestamps    = 0x08
	// KindChallenge is the unallocated opcode the paper assigns to the
	// puzzle challenge option.
	KindChallenge = 0xfc
	// KindSolution is the unallocated opcode the paper assigns to the
	// puzzle solution option.
	KindSolution = 0xfd
)

// MaxOptionsLen is the maximum length of a TCP options area: the data
// offset field allows a 60-byte header, 40 bytes beyond the fixed 20.
const MaxOptionsLen = 40

var (
	// ErrOptionsMalformed reports an undecodable options area.
	ErrOptionsMalformed = errors.New("tcpopt: malformed options")
	// ErrOptionsTooLong reports an options area exceeding MaxOptionsLen.
	ErrOptionsTooLong = errors.New("tcpopt: options exceed 40 bytes")
	// ErrOptionNotFound reports a missing option kind.
	ErrOptionNotFound = errors.New("tcpopt: option not found")
)

// Option is a single decoded TCP option. NOP and EOL are consumed during
// parsing and never appear in the result.
type Option struct {
	Kind uint8
	Data []byte
}

// ParseOptions decodes a TCP options area. It tolerates NOP padding and
// stops at EOL, per RFC 793.
func ParseOptions(b []byte) ([]Option, error) {
	var opts []Option
	for i := 0; ; {
		o, next, err := nextOption(b, i)
		if err != nil {
			return nil, err
		}
		if next == 0 {
			return opts, nil
		}
		opts = append(opts, o)
		i = next
	}
}

// FindOption returns the first option of the given kind in the raw options
// area b. It validates the whole area exactly as ParseOptions does — any
// malformed option is an error, and EOL ends the area — but decodes in
// place: the returned Data aliases b and nothing is allocated.
func FindOption(b []byte, kind uint8) (Option, bool, error) {
	var found Option
	ok := false
	for i := 0; ; {
		o, next, err := nextOption(b, i)
		if err != nil {
			return Option{}, false, err
		}
		if next == 0 {
			return found, ok, nil
		}
		if !ok && o.Kind == kind {
			found, ok = o, true
		}
		i = next
	}
}

// nextOption decodes the option at or after offset i of b, skipping NOP
// padding. It returns next == 0 at the end of the area or at EOL, and
// otherwise the offset just past the decoded option.
func nextOption(b []byte, i int) (o Option, next int, err error) {
	for i < len(b) && b[i] == KindNOP {
		i++
	}
	if i >= len(b) || b[i] == KindEOL {
		return Option{}, 0, nil
	}
	kind := b[i]
	if i+1 >= len(b) {
		return Option{}, 0, fmt.Errorf("tcpopt: option 0x%02x truncated at length byte: %w",
			kind, ErrOptionsMalformed)
	}
	length := int(b[i+1])
	if length < 2 || i+length > len(b) {
		return Option{}, 0, fmt.Errorf("tcpopt: option 0x%02x has bad length %d: %w",
			kind, length, ErrOptionsMalformed)
	}
	return Option{Kind: kind, Data: b[i+2 : i+length]}, i + length, nil
}

// MarshalOptions encodes options back-to-back and pads the area with NOPs to
// a 32-bit boundary. It fails if the result would not fit the TCP header.
// The output is sized up front, so a non-empty area costs one allocation.
func MarshalOptions(opts []Option) ([]byte, error) {
	n := 0
	for _, o := range opts {
		if len(o.Data) > 253 {
			return nil, fmt.Errorf("tcpopt: option 0x%02x data %d bytes: %w",
				o.Kind, len(o.Data), ErrOptionsMalformed)
		}
		n += 2 + len(o.Data)
	}
	n = align4(n)
	if n > MaxOptionsLen {
		return nil, fmt.Errorf("tcpopt: %d bytes: %w", n, ErrOptionsTooLong)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]byte, 0, n)
	for _, o := range opts {
		out = append(out, o.Kind, uint8(2+len(o.Data)))
		out = append(out, o.Data...)
	}
	return padNOP(out, 0), nil
}

// padNOP appends NOPs until the area that starts at offset start of b is
// 32-bit aligned.
func padNOP(b []byte, start int) []byte {
	for (len(b)-start)%4 != 0 {
		b = append(b, KindNOP)
	}
	return b
}

// MSSOption builds a standard Maximum Segment Size option.
func MSSOption(mss uint16) Option {
	return Option{Kind: KindMSS, Data: binary.BigEndian.AppendUint16(nil, mss)}
}

// ParseMSS extracts the MSS value from an MSS option.
func ParseMSS(o Option) (uint16, error) {
	if o.Kind != KindMSS || len(o.Data) != 2 {
		return 0, fmt.Errorf("tcpopt: bad MSS option: %w", ErrOptionsMalformed)
	}
	return binary.BigEndian.Uint16(o.Data), nil
}

// WScaleOption builds a standard window scale option.
func WScaleOption(shift uint8) Option {
	return Option{Kind: KindWScale, Data: []byte{shift}}
}

// ParseWScale extracts the shift count from a window scale option.
func ParseWScale(o Option) (uint8, error) {
	if o.Kind != KindWScale || len(o.Data) != 1 {
		return 0, fmt.Errorf("tcpopt: bad WScale option: %w", ErrOptionsMalformed)
	}
	return o.Data[0], nil
}

// TimestampsOption builds a standard TCP timestamps option (TSval, TSecr).
func TimestampsOption(tsVal, tsEcr uint32) Option {
	data := binary.BigEndian.AppendUint32(nil, tsVal)
	data = binary.BigEndian.AppendUint32(data, tsEcr)
	return Option{Kind: KindTimestamps, Data: data}
}

// ParseTimestamps extracts (TSval, TSecr) from a timestamps option.
func ParseTimestamps(o Option) (tsVal, tsEcr uint32, err error) {
	if o.Kind != KindTimestamps || len(o.Data) != 8 {
		return 0, 0, fmt.Errorf("tcpopt: bad timestamps option: %w", ErrOptionsMalformed)
	}
	return binary.BigEndian.Uint32(o.Data), binary.BigEndian.Uint32(o.Data[4:]), nil
}
