package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("SELECT 1"), bytes.Repeat([]byte{0xab}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type = %#x", i, typ)
		}
		if !bytes.Equal(got, p) && len(got)+len(p) > 0 {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeExec, bytes.Repeat([]byte{'x'}, 100)); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadFrame(&buf, 50)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsDeclaredGiantWithoutAllocating(t *testing.T) {
	// A malicious header declaring 2 GiB must be refused from the 5
	// header bytes alone.
	hdr := make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, 2<<30)
	hdr[4] = TypeExec
	_, _, err := ReadFrame(bytes.NewReader(hdr), DefaultMaxFrame)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameZeroLength(t *testing.T) {
	hdr := make([]byte, 5)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:5]), 0)
	if err == nil || !strings.Contains(err.Error(), "zero-length") {
		t.Fatalf("err = %v, want zero-length payload error", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeExec, []byte("SELECT * FROM emp")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]), 0)
		if err == nil {
			t.Fatalf("cut at %d bytes: no error", cut)
		}
		if cut > 5 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d bytes: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestFrameBufioMatchesPlain: the *bufio paths of WriteFrame and
// ReadFrameBuf (header built in, and peeked from, the stream's own
// buffer) write the same bytes and report the same frames and the same
// errors as the plain io paths, at every truncation — and allocate
// nothing per frame.
func TestFrameBufioMatchesPlain(t *testing.T) {
	payloads := [][]byte{nil, []byte("SELECT 1"), bytes.Repeat([]byte{0xab}, 300)}
	var plain, buffered bytes.Buffer
	bw := bufio.NewWriterSize(&buffered, 16) // small: the header often straddles a flush
	for i, p := range payloads {
		if err := WriteFrame(&plain, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(bw, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), buffered.Bytes()) {
		t.Fatalf("bufio.Writer path wrote %x, plain path %x", buffered.Bytes(), plain.Bytes())
	}

	streams := [][]byte{{0, 0, 0, 0, 0}, {0xff, 0xff, 0xff, 0xff, TypeExec}}
	for cut := 0; cut <= plain.Len(); cut++ {
		streams = append(streams, plain.Bytes()[:cut])
	}
	for _, stream := range streams {
		pr, br := bytes.NewReader(stream), bufio.NewReaderSize(bytes.NewReader(stream), 16)
		for frame := 0; ; frame++ {
			typP, gotP, errP := ReadFrame(pr, 1<<16)
			typB, gotB, errB := ReadFrame(br, 1<<16)
			if typP != typB || !bytes.Equal(gotP, gotB) || (errP == nil) != (errB == nil) ||
				(errP != nil && errP.Error() != errB.Error()) {
				t.Fatalf("%d-byte stream, frame %d: plain (%#x, %d bytes, %v) vs bufio (%#x, %d bytes, %v)",
					len(stream), frame, typP, len(gotP), errP, typB, len(gotB), errB)
			}
			if errP != nil {
				if errors.Is(errP, io.EOF) != errors.Is(errB, io.EOF) || errors.Is(errP, io.ErrUnexpectedEOF) != errors.Is(errB, io.ErrUnexpectedEOF) {
					t.Fatalf("%d-byte stream: error identity differs: %v vs %v", len(stream), errP, errB)
				}
				break
			}
		}
	}

	var loop bytes.Buffer
	br := bufio.NewReader(&loop)
	bw = bufio.NewWriter(&loop)
	payload, into := []byte("SELECT 1"), make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(bw, TypeExec, payload); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		if _, _, err := ReadFrameBuf(br, 0, into); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a frame written and read through bufio allocates %v times, want 0", n)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h, err := DecodeHello(EncodeHello("", ""))
	if err != nil {
		t.Fatal(err)
	}
	if *h != (Hello{Version: Version}) {
		t.Fatalf("decoded %+v", h)
	}
	bad := [][]byte{
		nil,
		[]byte("PRSM"),
		[]byte("XXXX\x02"),
		[]byte("PRSM\x02"),                   // credentials are not optional
		append(EncodeHello("", ""), 0x00),    // trailing byte
		[]byte("PRSM\x02\x00\x00\x00\x02pw"), // a secret without a tenant
	}
	for _, p := range bad {
		if _, err := DecodeHello(p); err == nil {
			t.Fatalf("DecodeHello(%q) accepted", p)
		}
	}
	// Another version is read no further than its version byte, so the
	// server can refuse it by version whatever follows.
	for _, p := range [][]byte{[]byte("PRSM\x01"), []byte("PRSM\x01\x00\x04acme")} {
		h, err := DecodeHello(p)
		if err != nil || h.Version != 1 {
			t.Fatalf("DecodeHello(%q) = %+v, %v; want version 1", p, h, err)
		}
	}
}

func TestHelloCredsRoundTrip(t *testing.T) {
	h, err := DecodeHello(EncodeHello("acme", "s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	if *h != (Hello{Version: Version, Tenant: "acme", Secret: "s3cret"}) {
		t.Fatalf("decoded %+v", h)
	}
	// A tenant with an empty secret is still a credential.
	if h, err := DecodeHello(EncodeHello("acme", "")); err != nil || h.Tenant != "acme" || h.Secret != "" {
		t.Fatalf("tenant without secret: %+v, %v", h, err)
	}
}

func TestHelloOKRoundTrip(t *testing.T) {
	for _, want := range []HelloOK{
		{Version: Version, Banner: "prisma-serve", Role: RolePrimary},
		{Version: Version, Banner: "prisma-serve", Role: RoleReplica, Epoch: 1 << 40, Primary: "127.0.0.1:7070"},
	} {
		got, err := DecodeHelloOK(EncodeHelloOK(&want))
		if err != nil || *got != want {
			t.Fatalf("round trip of %+v = %+v, %v", want, got, err)
		}
	}
	full := EncodeHelloOK(&HelloOK{Version: Version, Banner: "b", Role: RolePrimary})
	v1 := EncodeHelloOK(&HelloOK{Version: 1, Banner: "b", Role: RolePrimary})
	for _, p := range [][]byte{full[:3], append(full, 0x00), v1} { // no role; a trailing byte; version 1
		if _, err := DecodeHelloOK(p); err == nil {
			t.Fatalf("DecodeHelloOK(%q) accepted", p)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	rel := value.NewRelation(value.MustSchema("id", "INTEGER", "name", "VARCHAR", "score", "FLOAT"))
	rel.Append(
		value.NewTuple(value.NewInt(1), value.NewString("ann"), value.NewFloat(0.5)),
		value.NewTuple(value.NewInt(2), value.NewString(""), value.Null),
	)
	cases := []*Result{
		{Msg: "table emp created"},
		{Affected: -3},
		{Affected: 42, SimTime: 17 * time.Millisecond, WallTime: time.Microsecond},
		{Rel: rel, Plan: "Project(id)\n  Scan(emp)"},
		{Msg: "ok", QueueTime: 350 * time.Microsecond},
		{Rel: rel, QueueTime: 2 * time.Millisecond, WallTime: time.Millisecond},
	}
	for i, in := range cases {
		out, err := DecodeResult(EncodeResult(in))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if out.Affected != in.Affected || out.Msg != in.Msg || out.Plan != in.Plan ||
			out.SimTime != in.SimTime || out.WallTime != in.WallTime ||
			out.QueueTime != in.QueueTime {
			t.Fatalf("case %d: got %+v want %+v", i, out, in)
		}
		if (out.Rel == nil) != (in.Rel == nil) {
			t.Fatalf("case %d: rel presence mismatch", i)
		}
		if in.Rel != nil {
			if !value.EqualSchema(out.Rel.Schema, in.Rel.Schema) {
				t.Fatalf("case %d: schema %v != %v", i, out.Rel.Schema, in.Rel.Schema)
			}
			if !out.Rel.SameSet(in.Rel) || out.Rel.Len() != in.Rel.Len() {
				t.Fatalf("case %d: tuples differ", i)
			}
		}
	}
}

// TestResultQueueTimeCompat pins the wire compatibility contract: a
// Result that never queued encodes without the queue flag, so its bytes
// are identical to what pre-admission servers emitted.
func TestResultQueueTimeCompat(t *testing.T) {
	enc := EncodeResult(&Result{Msg: "ok", Affected: 1})
	if enc[0]&resultHasQueue != 0 {
		t.Fatalf("zero QueueTime set the queue flag (flags=0x%02x)", enc[0])
	}
	if enc2 := EncodeResult(&Result{Msg: "ok", Affected: 1, QueueTime: time.Millisecond}); len(enc2) != len(enc)+8 {
		t.Fatalf("queued encoding adds %d bytes, want 8", len(enc2)-len(enc))
	}
}

// TestDecodeResultMalformed feeds every truncation of a valid encoding
// plus corrupted bodies; decoding must error, never panic.
func TestDecodeResultMalformed(t *testing.T) {
	rel := value.NewRelation(value.MustSchema("id", "INTEGER"))
	rel.Append(value.NewTuple(value.NewInt(7)))
	full := EncodeResult(&Result{Rel: rel, Msg: "ok", Plan: "Scan"})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeResult(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage after a complete result.
	if _, err := DecodeResult(append(append([]byte{}, full...), 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A tuple value with an invalid kind tag. The last tuple encodes as
	// uint16 arity, a kind byte, then the 8-byte int payload — the kind
	// byte sits 9 bytes from the end.
	bad := append([]byte{}, full...)
	bad[len(bad)-9] = 0x7f
	if _, err := DecodeResult(bad); err == nil {
		t.Fatal("corrupted tuple accepted")
	}
}
