package tcpopt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	opts := []Option{
		MSSOption(1460),
		WScaleOption(7),
		TimestampsOption(12345, 678),
	}
	b, err := MarshalOptions(opts)
	if err != nil {
		t.Fatalf("MarshalOptions: %v", err)
	}
	if len(b)%4 != 0 {
		t.Errorf("options area %d bytes, not 32-bit aligned", len(b))
	}
	got, err := ParseOptions(b)
	if err != nil {
		t.Fatalf("ParseOptions: %v", err)
	}
	if len(got) != len(opts) {
		t.Fatalf("parsed %d options, want %d", len(got), len(opts))
	}
	for i := range opts {
		if got[i].Kind != opts[i].Kind || !bytes.Equal(got[i].Data, opts[i].Data) {
			t.Errorf("option %d = %+v, want %+v", i, got[i], opts[i])
		}
	}
}

func TestParseOptionsHandlesNOPAndEOL(t *testing.T) {
	b := []byte{KindNOP, KindNOP, KindMSS, 4, 0x05, 0xb4, KindEOL, 0xff}
	got, err := ParseOptions(b)
	if err != nil {
		t.Fatalf("ParseOptions: %v", err)
	}
	if len(got) != 1 || got[0].Kind != KindMSS {
		t.Fatalf("parsed %+v, want one MSS option", got)
	}
	mss, err := ParseMSS(got[0])
	if err != nil || mss != 1460 {
		t.Errorf("ParseMSS = %d, %v; want 1460", mss, err)
	}
}

func TestParseOptionsMalformed(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
	}{
		{"truncated length", []byte{KindMSS}},
		{"length too small", []byte{KindMSS, 1}},
		{"length overruns", []byte{KindMSS, 10, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseOptions(tt.b); !errors.Is(err, ErrOptionsMalformed) {
				t.Errorf("ParseOptions(%x) error = %v, want ErrOptionsMalformed", tt.b, err)
			}
		})
	}
}

func TestMarshalOptionsTooLong(t *testing.T) {
	big := Option{Kind: 0x99, Data: make([]byte, 39)}
	if _, err := MarshalOptions([]Option{big}); !errors.Is(err, ErrOptionsTooLong) {
		t.Errorf("MarshalOptions error = %v, want ErrOptionsTooLong", err)
	}
}

func TestStandardOptionAccessors(t *testing.T) {
	if _, err := ParseMSS(WScaleOption(3)); err == nil {
		t.Error("ParseMSS accepted a WScale option")
	}
	ws, err := ParseWScale(WScaleOption(9))
	if err != nil || ws != 9 {
		t.Errorf("ParseWScale = %d, %v", ws, err)
	}
	tsVal, tsEcr, err := ParseTimestamps(TimestampsOption(7, 8))
	if err != nil || tsVal != 7 || tsEcr != 8 {
		t.Errorf("ParseTimestamps = %d, %d, %v", tsVal, tsEcr, err)
	}
	if _, _, err := ParseTimestamps(MSSOption(1)); err == nil {
		t.Error("ParseTimestamps accepted an MSS option")
	}
}

func TestFindOption(t *testing.T) {
	b, err := MarshalOptions([]Option{MSSOption(100), WScaleOption(2), WScaleOption(3)})
	if err != nil {
		t.Fatalf("MarshalOptions: %v", err)
	}
	o, ok, err := FindOption(b, KindWScale)
	if err != nil || !ok || o.Kind != KindWScale || len(o.Data) != 1 || o.Data[0] != 2 {
		t.Errorf("FindOption(WScale) = %+v, %v, %v; want the first WScale (2)", o, ok, err)
	}
	if &o.Data[0] != &b[6] {
		t.Error("FindOption Data does not alias the options area")
	}
	if _, ok, err := FindOption(b, KindChallenge); ok || err != nil {
		t.Errorf("FindOption(Challenge) in plain options = %v, %v", ok, err)
	}
	// EOL ends the area: an option after it is not found, even when the
	// bytes after EOL would not parse.
	if _, ok, err := FindOption([]byte{KindNOP, KindEOL, KindMSS, 4, 5, 180}, KindMSS); ok || err != nil {
		t.Errorf("FindOption past EOL = %v, %v; want not found, no error", ok, err)
	}
	// A malformed option anywhere in the area is an error, even after the
	// match.
	bad := []byte{KindMSS, 4, 0x05, 0xb4, KindWScale, 9}
	if o, ok, err := FindOption(bad, KindMSS); !errors.Is(err, ErrOptionsMalformed) || ok || o.Data != nil {
		t.Errorf("FindOption on malformed area = %+v, %v, %v; want zero, false, ErrOptionsMalformed", o, ok, err)
	}
}

// Property: marshal→parse round-trips arbitrary small option payloads and
// the marshalled area is always 32-bit aligned.
func TestMarshalParseProperty(t *testing.T) {
	f := func(kind uint8, data []byte) bool {
		if kind == KindEOL || kind == KindNOP {
			kind = KindMSS
		}
		if len(data) > 20 {
			data = data[:20]
		}
		b, err := MarshalOptions([]Option{{Kind: kind, Data: data}})
		if err != nil {
			return false
		}
		if len(b)%4 != 0 {
			return false
		}
		got, err := ParseOptions(b)
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0].Kind == kind && bytes.Equal(got[0].Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
