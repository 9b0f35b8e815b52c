package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/value"
)

// Fuzz targets for every hand-rolled binary decoder of the wire
// protocol. Each target asserts two properties on arbitrary input:
// decoders never panic, and a successful decode re-encodes to an
// equivalent value (where the format is canonical). CI runs each target
// for a short -fuzztime on every push; `go test` replays the corpus.

// fuzzSchema is the schema used to validate fuzzed row chunks.
var fuzzSchema = value.MustSchema("id", "INT", "name", "VARCHAR", "ok", "BOOL")

// sampleResult builds a representative Result for seed corpora.
func sampleResult() *Result {
	rel := value.NewRelation(fuzzSchema)
	rel.Append(
		value.NewTuple(value.NewInt(1), value.NewString("ann"), value.NewBool(true)),
		value.NewTuple(value.Null, value.NewString(""), value.Null),
	)
	return &Result{
		Rel:      rel,
		Affected: 3,
		Msg:      "ok",
		Plan:     "Scan(t)",
		SimTime:  15 * time.Millisecond,
		WallTime: 40 * time.Microsecond,
	}
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, TypeExec, []byte("SELECT 1"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1, TypeHello})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})       // huge declared length
	f.Add([]byte{0, 0, 0, 0, 0})                   // zero-length payload
	f.Add([]byte{0, 0, 0, 10, TypeExec, 'S', 'E'}) // truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 16
		typ, payload, err := ReadFrame(bytes.NewReader(data), limit)
		// The *bufio.Reader path (header peeked in place) sees the same frame.
		typB, payloadB, errB := ReadFrame(bufio.NewReader(bytes.NewReader(data)), limit)
		if typB != typ || !bytes.Equal(payloadB, payload) || (errB == nil) != (err == nil) {
			t.Fatalf("plain reader: (%#x, %d bytes, %v); bufio reader: (%#x, %d bytes, %v)", typ, len(payload), err, typB, len(payloadB), errB)
		}
		if err != nil {
			return
		}
		if len(payload)+1 > limit {
			t.Fatalf("ReadFrame returned %d payload bytes past the %d limit", len(payload), limit)
		}
		// A successful read must round-trip through WriteFrame.
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		typ2, payload2, err := ReadFrame(&out, limit)
		if err != nil || typ2 != typ || !bytes.Equal(payload, payload2) {
			t.Fatalf("round trip mismatch: %v", err)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(EncodeHello("", ""))
	f.Add([]byte("PRSM"))
	f.Add([]byte("PRSX\x02"))
	f.Add(EncodeHello("acme", "s3cret"))
	f.Add([]byte("PRSM\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			return
		}
		if h.Version != Version {
			if data[len(Magic)] != byte(h.Version) || h.Tenant != "" || h.Secret != "" {
				t.Fatalf("a version-%d Hello decoded to %+v", data[len(Magic)], h)
			}
			return
		}
		if !bytes.Equal(EncodeHello(h.Tenant, h.Secret), data) {
			t.Fatalf("decoded hello %+v does not re-encode to input", h)
		}
	})
}

func FuzzDecodeHelloOK(f *testing.F) {
	f.Add(EncodeHelloOK(&HelloOK{Version: Version, Banner: "prisma-serve", Role: RolePrimary}))
	f.Add(EncodeHelloOK(&HelloOK{Version: Version, Banner: "prisma-serve", Role: RoleReplica, Epoch: 7, Primary: "127.0.0.1:7070"}))
	f.Add([]byte{Version, 0, 0})
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHelloOK(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeHelloOK(h), data) {
			t.Fatalf("decoded HelloOK %+v does not re-encode to input", h)
		}
	})
}

func FuzzDecodePrepareOK(f *testing.F) {
	f.Add(EncodePrepareOK(7, 3))
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, n, err := DecodePrepareOK(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodePrepareOK(id, n), data) {
			t.Fatalf("PrepareOK(%d, %d) does not re-encode to input", id, n)
		}
	})
}

func FuzzDecodeClosePrepared(f *testing.F) {
	f.Add(EncodeClosePrepared(42))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, err := DecodeClosePrepared(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeClosePrepared(id), data) {
			t.Fatalf("ClosePrepared(%d) does not re-encode to input", id)
		}
	})
}

func FuzzDecodeBindExec(f *testing.F) {
	f.Add(EncodeBindExec(1, []value.Value{value.NewInt(7), value.NewString("x"), value.Null}))
	f.Add(EncodeBindExec(0, nil))
	f.Add([]byte{0, 0, 0, 1, 0xff, 0xff}) // arity 65535, no values
	f.Fuzz(func(t *testing.T, data []byte) {
		id, args, err := DecodeBindExec(data)
		if err != nil {
			return
		}
		// Value payloads are not byte-canonical (e.g. any non-zero bool
		// byte decodes to true); assert the canonical fixed point: one
		// re-encode round trip, then stable bytes.
		enc := EncodeBindExec(id, args)
		id2, args2, err := DecodeBindExec(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(EncodeBindExec(id2, args2), enc) {
			t.Fatalf("BindExec(%d, %d args) encoding is not a fixed point", id, len(args))
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult(sampleResult()))
	f.Add(EncodeResult(&Result{Msg: "table t created"}))
	f.Add(EncodeResult(&Result{Rel: value.NewRelation(fuzzSchema)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		// Value payloads are not byte-canonical; assert the fixed point.
		enc := EncodeResult(r)
		r2, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(EncodeResult(r2), enc) {
			t.Fatalf("result encoding is not a fixed point")
		}
	})
}

func FuzzDecodeExecStream(f *testing.F) {
	f.Add(EncodeExecStream(256, 64<<10, "SELECT * FROM t"))
	f.Add(EncodeExecStream(0, 0, ""))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, bytes_, sql, err := DecodeExecStream(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeExecStream(rows, bytes_, sql), data) {
			t.Fatalf("ExecStream(%d, %d, %q) does not re-encode to input", rows, bytes_, sql)
		}
	})
}

func FuzzDecodeResultHead(f *testing.F) {
	f.Add(EncodeResultHead(&ResultHead{Plan: "Scan(t)", Schema: fuzzSchema}))
	f.Add(EncodeResultHead(&ResultHead{Schema: value.NewSchema()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeResultHead(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeResultHead(h), data) {
			t.Fatalf("decoded result head does not re-encode to input")
		}
	})
}

func FuzzDecodeRowChunk(f *testing.F) {
	f.Add(EncodeRowChunk([]value.Tuple{
		value.NewTuple(value.NewInt(1), value.NewString("ann"), value.NewBool(true)),
		value.NewTuple(value.Null, value.NewString(""), value.Null),
	}))
	f.Add(EncodeRowChunk(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0}) // hostile count
	f.Fuzz(func(t *testing.T, data []byte) {
		tuples, err := DecodeRowChunk(data, fuzzSchema)
		if err != nil {
			return
		}
		for i, tp := range tuples {
			if len(tp) != fuzzSchema.Len() {
				t.Fatalf("tuple %d has arity %d past schema validation", i, len(tp))
			}
		}
		// Value payloads are not byte-canonical; assert the fixed point.
		enc := EncodeRowChunk(tuples)
		tuples2, err := DecodeRowChunk(enc, fuzzSchema)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(EncodeRowChunk(tuples2), enc) {
			t.Fatalf("row chunk encoding is not a fixed point")
		}
	})
}

func FuzzDecodeResultEnd(f *testing.F) {
	f.Add(EncodeResultEnd(&ResultEnd{Rows: 12345, SimTime: time.Second, WallTime: time.Millisecond}))
	f.Add(make([]byte, 23))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeResultEnd(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeResultEnd(e), data) {
			t.Fatalf("decoded result end does not re-encode to input")
		}
	})
}

// The replication frames come off the network as well: a replica decodes
// what its primary ships, a full sync's checkpoint image of rows included,
// and a primary what a subscriber sends.

func FuzzDecodeReplRecords(f *testing.F) {
	img := value.AppendRow(binary.BigEndian.AppendUint32(nil, 1), fuzzSchema, value.NewTuple(value.NewInt(1), value.NewString("ann"), value.NewBool(true)))
	f.Add(EncodeReplRecords(&ReplRecords{Epoch: 3, Log: "wal-t#0", Kind: ReplFullSync, Gen: 2, Ckpt: img, Data: []byte{1, 2, 3}}))
	f.Add(EncodeReplRecords(&ReplRecords{Epoch: 3, Log: "wal-t#1", Kind: ReplIncremental, Gen: 2, Off: 4096, Data: []byte{9}}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReplRecords(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeReplRecords(r), data) {
			t.Fatalf("decoded ReplRecords %+v does not re-encode to input", r)
		}
	})
}

func FuzzDecodeReplSubscribe(f *testing.F) {
	f.Add(EncodeReplSubscribe(&ReplSubscribe{Epoch: 7}))
	f.Add(EncodeReplSubscribe(&ReplSubscribe{Epoch: 7, Positions: []ReplPosition{{Log: "wal-t#0", Gen: 1, Off: 512}, {Log: "", Gen: 0, Off: -1}}}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeReplSubscribe(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeReplSubscribe(s), data) {
			t.Fatalf("decoded ReplSubscribe %+v does not re-encode to input", s)
		}
	})
}

// FuzzDecodeReplStatus: a value in a table's bounds may decode from bytes
// its encoder does not write (a BOOL byte of 2), so the property is that
// the re-encoding decodes, and re-encodes to itself.
func FuzzDecodeReplStatus(f *testing.F) {
	f.Add(EncodeReplStatus(&ReplStatus{Epoch: 1, Watermark: 99}))
	f.Add(EncodeReplStatus(&ReplStatus{Epoch: 1, Watermark: 99, Tables: []ReplTableDef{
		{Name: "t", Schema: fuzzSchema, Strategy: 1, Column: 0, N: 4, PrimaryKey: []int{0}},
		{Name: "r", Schema: fuzzSchema, Strategy: 2, Column: 1, N: 2, Bounds: []value.Value{value.NewString("m"), value.Null}},
	}}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeReplStatus(data)
		if err != nil {
			return
		}
		enc := EncodeReplStatus(st)
		again, err := DecodeReplStatus(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(EncodeReplStatus(again), enc) {
			t.Fatalf("ReplStatus encoding is not a fixed point")
		}
	})
}
