package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// frameOf wraps body in a length prefix.
func frameOf(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	in := &Message{Type: "x.err", ID: 1 << 40, Error: "boom", Code: CodeNotFound, Payload: []byte{0, 1, 2, '{'}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != Version {
		t.Fatalf("first body byte %d, want version %d", got, Version)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.ID != in.ID || out.Error != in.Error || out.Code != in.Code || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

func TestReadFrameRefusesOtherVersions(t *testing.T) {
	jsonEra := frameOf([]byte(`{"type":"exacml.stats","id":1}`))
	for name, frame := range map[string][]byte{
		"json-era":      jsonEra,
		"wrong version": frameOf([]byte{Version + 1, 1, 0, 0, 0}),
		"empty body":    frameOf(nil),
	} {
		if _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrVersion) {
			t.Errorf("%s: ReadFrame = %v, want ErrVersion", name, err)
		}
	}
}

// TestServerClosesOnJSONEraFrame checks that a peer speaking the
// JSON-era protocol gets its connection closed, not an answer.
func TestServerClosesOnJSONEraFrame(t *testing.T) {
	srv := NewServer()
	srv.Handle("exacml.stats", func(*Message, *Conn) (any, error) { return "ok", nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(frameOf([]byte(`{"type":"exacml.stats","id":1}`))); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := nc.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("server answered a JSON-era frame: read %d bytes, err %v", n, err)
	}
}

func TestMalformedHeaderRefused(t *testing.T) {
	for name, body := range map[string][]byte{
		"no id":              {Version},
		"type beyond bytes":  {Version, 1, 9, 'a'},
		"missing code field": {Version, 1, 0, 0},
	} {
		if _, err := ReadFrame(bytes.NewReader(frameOf(body))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	m := &Message{Type: "big", Payload: make([]byte, MaxFrameSize)}
	if err := WriteFrame(io.Discard, m); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame of an oversized payload = %v, want ErrFrameTooLarge", err)
	}
}

// TestReadFrameAllocatesWhatArrives checks that a length prefix
// claiming a maximal frame, followed by a few bytes and EOF, does not
// make the reader allocate the claimed size.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	in := append(binary.BigEndian.AppendUint32(nil, MaxFrameSize), Version, 1, 0, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrame of a truncated body = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*readChunk {
		t.Fatalf("a %d-byte truncated frame allocated %d bytes", len(in), got)
	}
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, &Message{Type: "t", ID: 3, Error: "e", Code: "c", Payload: []byte("{}")})
	f.Add(buf.Bytes())
	f.Add(frameOf([]byte(`{"type":"x"}`)))
	f.Add(frameOf([]byte{Version, 0xff, 0xff}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(m.Type)+len(m.Error)+len(m.Code)+len(m.Payload) > len(data) {
			t.Fatalf("%d bytes decoded into a larger message %+v", len(data), m)
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, m); err != nil {
			t.Fatal(err)
		}
		if again, err := ReadFrame(&out); err != nil || again.Type != m.Type || again.ID != m.ID ||
			again.Error != m.Error || again.Code != m.Code || !bytes.Equal(again.Payload, m.Payload) {
			t.Fatalf("re-framed message differs: %+v vs %+v (%v)", again, m, err)
		}
	})
}
