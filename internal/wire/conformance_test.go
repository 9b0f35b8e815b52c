package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/value"
)

// Conformance: every frame type's encoder and decoder are exact
// inverses, so a protocol change that skews one side cannot land
// silently. Each case encodes, decodes, and compares structurally.

func TestPrepareOKRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		id      uint32
		nparams int
	}{
		{0, 0}, {1, 3}, {1<<32 - 1, MaxBindArgs},
	} {
		id, n, err := DecodePrepareOK(EncodePrepareOK(tc.id, tc.nparams))
		if err != nil {
			t.Fatal(err)
		}
		if id != tc.id || n != tc.nparams {
			t.Fatalf("PrepareOK(%d, %d) decoded as (%d, %d)", tc.id, tc.nparams, id, n)
		}
	}
}

func TestClosePreparedRoundTrip(t *testing.T) {
	for _, want := range []uint32{0, 7, 1<<32 - 1} {
		id, err := DecodeClosePrepared(EncodeClosePrepared(want))
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("ClosePrepared(%d) decoded as %d", want, id)
		}
	}
}

// maxArityArgs builds a BindExec argument list at the wire format's
// arity ceiling, cycling through every value kind including NULL.
func maxArityArgs() []value.Value {
	args := make([]value.Value, MaxBindArgs)
	for i := range args {
		switch i % 5 {
		case 0:
			args[i] = value.NewInt(int64(i))
		case 1:
			args[i] = value.NewString("s")
		case 2:
			args[i] = value.Null
		case 3:
			args[i] = value.NewFloat(float64(i) / 3)
		default:
			args[i] = value.NewBool(i%2 == 0)
		}
	}
	return args
}

func TestBindExecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		id   uint32
		args []value.Value
	}{
		{"no args", 1, nil},
		{"scalars", 42, []value.Value{value.NewInt(-7), value.NewFloat(2.5), value.NewString("ann"), value.NewBool(true)}},
		{"nulls", 3, []value.Value{value.Null, value.Null}},
		{"empty string", 4, []value.Value{value.NewString("")}},
		{"max arity", 1<<32 - 1, maxArityArgs()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id, args, err := DecodeBindExec(EncodeBindExec(tc.id, tc.args))
			if err != nil {
				t.Fatal(err)
			}
			// The payload is reserved once, at the size the arguments need.
			if n := testing.AllocsPerRun(10, func() { EncodeBindExec(tc.id, tc.args) }); n != 1 {
				t.Errorf("EncodeBindExec allocates %v times, want 1", n)
			}
			if id != tc.id {
				t.Fatalf("id = %d, want %d", id, tc.id)
			}
			if len(args) != len(tc.args) {
				t.Fatalf("len(args) = %d, want %d", len(args), len(tc.args))
			}
			for i := range args {
				if args[i].Kind() != tc.args[i].Kind() || args[i].String() != tc.args[i].String() {
					t.Fatalf("arg %d = %s (%s), want %s (%s)",
						i, args[i], args[i].Kind(), tc.args[i], tc.args[i].Kind())
				}
			}
		})
	}
}

// sameRelation compares schema and tuples structurally.
func sameRelation(t *testing.T, got, want *value.Relation) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("relation presence mismatch: got %v, want %v", got, want)
	}
	if got == nil {
		return
	}
	if got.Schema.Len() != want.Schema.Len() {
		t.Fatalf("schema arity %d, want %d", got.Schema.Len(), want.Schema.Len())
	}
	for i := 0; i < want.Schema.Len(); i++ {
		g, w := got.Schema.Column(i), want.Schema.Column(i)
		if g.Name != w.Name || g.Kind != w.Kind {
			t.Fatalf("schema column %d = %v, want %v", i, g, w)
		}
	}
	if !got.SameBag(want) {
		t.Fatalf("tuples differ:\n%v\nwant:\n%v", got, want)
	}
}

// sameTuplesInOrder holds a decoded reply to the tuples that were
// encoded, position by position and kind by kind — after appending to
// every decoded tuple: they share one backing array, so an append that
// did not reallocate would have overwritten the next tuple's first cell.
func sameTuplesInOrder(t *testing.T, got, want []value.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		_ = append(got[i], value.NewString("overwritten"))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("tuple %d has arity %d, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if got[i][c].Kind() != want[i][c].Kind() || value.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("tuple %d column %d = %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

func TestResultConformance(t *testing.T) {
	schema := value.MustSchema("id", "INT", "name", "VARCHAR", "score", "FLOAT", "ok", "BOOL")
	full := value.NewRelation(schema)
	full.Append(
		value.NewTuple(value.NewInt(1), value.NewString("ann"), value.NewFloat(1.5), value.NewBool(true)),
		value.NewTuple(value.NewInt(-2), value.NewString(""), value.NewFloat(-0.25), value.NewBool(false)),
		value.NewTuple(value.Null, value.Null, value.Null, value.Null),
	)
	cases := []struct {
		name string
		res  *Result
	}{
		{"ddl message", &Result{Msg: "table t created", SimTime: time.Millisecond, WallTime: time.Microsecond}},
		{"dml affected", &Result{Affected: 17}},
		{"negative affected", &Result{Affected: -1}},
		{"empty relation", &Result{Rel: value.NewRelation(schema)}},
		{"relation with NULLs", &Result{Rel: full, Plan: "Scan(t) est=3", SimTime: 5 * time.Second, WallTime: 3 * time.Minute}},
		{"zero-column relation", &Result{Rel: &value.Relation{Schema: value.NewSchema(), Tuples: []value.Tuple{{}, {}, {}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeResult(EncodeResult(tc.res))
			if err != nil {
				t.Fatal(err)
			}
			if got.Affected != tc.res.Affected || got.Msg != tc.res.Msg ||
				got.Plan != tc.res.Plan || got.SimTime != tc.res.SimTime || got.WallTime != tc.res.WallTime {
				t.Fatalf("scalar fields differ: got %+v, want %+v", got, tc.res)
			}
			sameRelation(t, got.Rel, tc.res.Rel)
			if tc.res.Rel == nil {
				return
			}
			sameTuplesInOrder(t, got.Rel.Tuples, tc.res.Rel.Tuples)
			// The same relation handed over already encoded is the same frame.
			pre := *tc.res
			pre.Rel, pre.Rows = nil, &value.EncodedRows{Schema: tc.res.Rel.Schema, N: tc.res.Rel.Len()}
			for _, tup := range tc.res.Rel.Tuples {
				pre.Rows.Bytes = value.AppendTuple(pre.Rows.Bytes, tup)
			}
			if !bytes.Equal(EncodeResult(&pre), EncodeResult(tc.res)) {
				t.Fatalf("pre-encoded rows encode as %x, the relation as %x", EncodeResult(&pre), EncodeResult(tc.res))
			}
		})
	}
}

// TestAppendResultReservesEncodedLength: the buffer a result grows is sized
// from what the frame will hold — exactly, for rows that arrive encoded,
// and within a NULL's or a bool's slack of it for a relation — not from
// Relation.Size, the simulated footprint (2.8x the encoding of an int
// pair). And a buffer kept across statements gives up a capacity only an
// outsized result needed.
func TestAppendResultReservesEncodedLength(t *testing.T) {
	rel := value.NewRelation(value.MustSchema("id", "INT", "amt", "INT"))
	rows := &value.EncodedRows{Schema: rel.Schema}
	for i := 0; i < 2062; i++ {
		rel.Append(value.NewTuple(value.NewInt(int64(i)), value.NewInt(0)))
		rows.Bytes = value.AppendTuple(rows.Bytes, rel.Tuples[i])
		rows.N++
	}
	for name, res := range map[string]*Result{"relation": {Rel: rel, Plan: "Scan"}, "encoded rows": {Rows: rows, Plan: "Scan"}} {
		buf := AppendResult(make([]byte, 0, 16), res)
		if spare := cap(buf) - len(buf); spare > 8 { // the optional queue time
			t.Errorf("%s: %d bytes reserved for a %d-byte frame", name, cap(buf), len(buf))
		}
	}
	withNulls := value.NewRelation(rel.Schema)
	withNulls.Append(value.NewTuple(value.Null, value.NewInt(1)))
	if buf := AppendResult(nil, &Result{Rel: withNulls}); cap(buf) < len(buf) || cap(buf) > len(buf)+16 {
		t.Errorf("relation with a NULL: %d bytes reserved for a %d-byte frame", cap(buf), len(buf))
	}

	small := make([]byte, 100, 8192)
	if kept := KeepBuf(small); len(kept) != 0 || cap(kept) != 8192 {
		t.Errorf("KeepBuf dropped a %d-byte buffer", cap(small))
	}
	if kept := KeepBuf(make([]byte, 0, maxPooledBuf+1)); cap(kept) > 8192 {
		t.Errorf("KeepBuf kept a buffer of %d bytes", cap(kept))
	}
}

func TestExecStreamRoundTrip(t *testing.T) {
	cases := []struct {
		rows, bytes int
		sql         string
	}{
		{0, 0, ""},
		{256, 64 << 10, "SELECT * FROM t"},
		{1, 1, "SELECT 'üñïçødé «quoted»'"},
	}
	for _, tc := range cases {
		rows, nbytes, sql, err := DecodeExecStream(EncodeExecStream(tc.rows, tc.bytes, tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		if rows != tc.rows || nbytes != tc.bytes || sql != tc.sql {
			t.Fatalf("ExecStream(%d, %d, %q) decoded as (%d, %d, %q)",
				tc.rows, tc.bytes, tc.sql, rows, nbytes, sql)
		}
	}
}

func TestResultHeadRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		head *ResultHead
	}{
		{"empty schema", &ResultHead{Schema: value.NewSchema()}},
		{"plain", &ResultHead{Msg: "m", Plan: "Scan(t)\n", Schema: value.MustSchema("id", "INT", "name", "VARCHAR")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeResultHead(EncodeResultHead(tc.head))
			if err != nil {
				t.Fatal(err)
			}
			if got.Msg != tc.head.Msg || got.Plan != tc.head.Plan {
				t.Fatalf("head = %+v, want %+v", got, tc.head)
			}
			if got.Schema.Len() != tc.head.Schema.Len() {
				t.Fatalf("schema arity %d, want %d", got.Schema.Len(), tc.head.Schema.Len())
			}
			for i := 0; i < got.Schema.Len(); i++ {
				g, w := got.Schema.Column(i), tc.head.Schema.Column(i)
				if g != w {
					t.Fatalf("schema column %d = %v, want %v", i, g, w)
				}
			}
		})
	}
}

func TestRowChunkRoundTrip(t *testing.T) {
	schema := value.MustSchema("id", "INT", "name", "VARCHAR")
	cases := []struct {
		name   string
		tuples []value.Tuple
	}{
		{"empty", nil},
		{"one", []value.Tuple{value.NewTuple(value.NewInt(1), value.NewString("a"))}},
		{"nulls", []value.Tuple{
			value.NewTuple(value.Null, value.Null),
			value.NewTuple(value.NewInt(2), value.Null),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeRowChunk(EncodeRowChunk(tc.tuples), schema)
			if err != nil {
				t.Fatal(err)
			}
			sameTuplesInOrder(t, got, tc.tuples)
			// No schema, no arity check — and the same tuples.
			if got, err = DecodeRowChunk(EncodeRowChunk(tc.tuples), nil); err != nil {
				t.Fatal(err)
			}
			sameTuplesInOrder(t, got, tc.tuples)
		})
	}
	// Arity enforcement: a tuple not matching the stream schema is a
	// protocol error, not silently accepted. The messages are the
	// tuple-at-a-time decoder's.
	good := EncodeRowChunk([]value.Tuple{
		value.NewTuple(value.NewInt(1), value.NewString("a")),
		value.NewTuple(value.NewInt(1), value.NewString("abc")),
	})
	for _, tc := range []struct {
		name string
		buf  []byte
		want string
	}{
		{"arity", EncodeRowChunk([]value.Tuple{value.NewTuple(value.NewInt(1))}), "wire: chunk tuple 0 has arity 1, schema has 2"},
		{"string body", good[:len(good)-1], "wire: chunk tuple 1: value: tuple field 1: value: truncated string body (want 3 bytes)"},
		{"int", good[:len(good)-9], "wire: chunk tuple 1: value: tuple field 0: value: truncated int"},
		{"trailing", append(good[:len(good):len(good)], 0), "wire: 1 trailing bytes after row chunk"},
	} {
		if _, err := DecodeRowChunk(tc.buf, schema); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRowChunkHostileCount: a count the payload could not hold fails
// without being believed — nothing near count × arity values is
// reserved.
func TestRowChunkHostileCount(t *testing.T) {
	wide := make([]string, 0, 2000)
	for i := 0; i < 1000; i++ {
		wide = append(wide, "c", "INT")
	}
	buf := append(binaryU32(1<<32-1), value.AppendTuple(nil, value.NewTuple(value.NewInt(1)))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRowChunk(buf, value.MustSchema(wide...))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile tuple count accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding a %d-byte chunk allocated %d bytes", len(buf), got)
	}
}

// TestReplyDecodeAllocsIndependentOfRows: a reply's tuples decode into
// one backing array, so an all-numeric reply costs the same number of
// allocations at 16 rows as at 4096 — as a Result and as a RowChunk.
func TestReplyDecodeAllocsIndependentOfRows(t *testing.T) {
	schema := value.MustSchema("id", "INT", "score", "FLOAT")
	allocs := func(rows int) (result, chunk float64) {
		rel := value.NewRelation(schema)
		for i := 0; i < rows; i++ {
			rel.Append(value.NewTuple(value.NewInt(int64(i)), value.NewFloat(float64(i)/4)))
		}
		res, rowChunk := EncodeResult(&Result{Rel: rel}), EncodeRowChunk(rel.Tuples)
		result = testing.AllocsPerRun(20, func() {
			if _, err := DecodeResult(res); err != nil {
				t.Fatal(err)
			}
		})
		chunk = testing.AllocsPerRun(20, func() {
			if _, err := DecodeRowChunk(rowChunk, schema); err != nil {
				t.Fatal(err)
			}
		})
		return result, chunk
	}
	smallRes, smallChunk := allocs(16)
	largeRes, largeChunk := allocs(4096)
	if smallRes != largeRes || smallChunk != largeChunk {
		t.Fatalf("allocations grow with rows: Result %v -> %v, RowChunk %v -> %v", smallRes, largeRes, smallChunk, largeChunk)
	}
}

func TestResultEndRoundTrip(t *testing.T) {
	want := &ResultEnd{Rows: 1 << 40, SimTime: 98 * time.Millisecond, WallTime: 7 * time.Microsecond}
	got, err := DecodeResultEnd(EncodeResultEnd(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("end = %+v, want %+v", got, want)
	}
}

func binaryU32(n uint32) []byte {
	return []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

// TestDecodersRejectTruncation drives every decoder over every prefix
// of a valid encoding: all must error (never panic) on truncated input,
// except the empty-arity cases that are legitimately valid prefixes.
func TestDecodersRejectTruncation(t *testing.T) {
	schema := value.MustSchema("id", "INT", "name", "VARCHAR")
	rel := value.NewRelation(schema)
	rel.Append(value.NewTuple(value.NewInt(1), value.NewString("ann")))
	full := map[string][]byte{
		"Hello":         EncodeHello("acme", "s3cret"),
		"HelloOK":       EncodeHelloOK(&HelloOK{Version: Version, Banner: "b", Role: RoleReplica, Epoch: 3, Primary: "p:1"}),
		"PrepareOK":     EncodePrepareOK(1, 2),
		"ClosePrepared": EncodeClosePrepared(1),
		"BindExec":      EncodeBindExec(1, []value.Value{value.NewInt(1), value.NewString("x")}),
		"Result":        EncodeResult(&Result{Rel: rel, Msg: "m", Plan: "p"}),
		"ExecStream":    EncodeExecStream(1, 2, "SELECT"),
		"ResultHead":    EncodeResultHead(&ResultHead{Msg: "m", Plan: "p", Schema: schema}),
		"RowChunk":      EncodeRowChunk(rel.Tuples),
		"ResultEnd":     EncodeResultEnd(&ResultEnd{Rows: 1}),
	}
	decode := map[string]func([]byte) error{
		"Hello":         func(b []byte) error { _, err := DecodeHello(b); return err },
		"HelloOK":       func(b []byte) error { _, err := DecodeHelloOK(b); return err },
		"PrepareOK":     func(b []byte) error { _, _, err := DecodePrepareOK(b); return err },
		"ClosePrepared": func(b []byte) error { _, err := DecodeClosePrepared(b); return err },
		"BindExec":      func(b []byte) error { _, _, err := DecodeBindExec(b); return err },
		"Result":        func(b []byte) error { _, err := DecodeResult(b); return err },
		"ExecStream":    func(b []byte) error { _, _, _, err := DecodeExecStream(b); return err },
		"ResultHead":    func(b []byte) error { _, err := DecodeResultHead(b); return err },
		"RowChunk":      func(b []byte) error { _, err := DecodeRowChunk(b, schema); return err },
		"ResultEnd":     func(b []byte) error { _, err := DecodeResultEnd(b); return err },
	}
	// Truncations of these lengths happen to decode as shorter valid
	// payloads (an ExecStream's SQL text may be any suffix length, and
	// a BindExec whose value bytes are cut at a value boundary still
	// fails only on the trailing-byte check — which catches all of
	// them; none are silently *mis*decoded).
	for name, buf := range full {
		fn := decode[name]
		for n := 0; n < len(buf); n++ {
			if name == "ExecStream" && n >= 8 {
				continue // any SQL-text prefix is a valid shorter frame
			}
			if err := fn(buf[:n]); err == nil {
				t.Errorf("%s: decoding %d/%d-byte prefix succeeded", name, n, len(buf))
			}
		}
	}
}
