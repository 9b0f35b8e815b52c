// Package wire is the client/server wire protocol of the PRISMA
// front-end: length-prefixed frames carrying SQL / PRISMAlog statements
// toward the server and encoded value.Relation results back. It is the
// only protocol knowledge shared by internal/server and internal/client,
// and deliberately depends on nothing but the value encoding.
//
// Frame layout (all integers big-endian):
//
//	uint32  payload length (including the type byte)
//	byte    frame type
//	[]byte  payload
//
// A connection opens with a Hello frame ("PRSM" magic + version byte);
// the server answers HelloOK or Error. After the handshake the client
// sends Exec / Datalog frames, each answered by exactly one Result or
// Error frame.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/value"
)

// Magic opens every Hello frame.
const Magic = "PRSM"

// Version is the protocol version spoken by this build.
const Version = 1

// DefaultMaxFrame bounds a frame's payload (type byte + body). Statements
// and results beyond this are refused rather than buffered.
const DefaultMaxFrame = 8 << 20

// DefaultChunkRows and DefaultChunkBytes are the per-chunk budgets of a
// streamed result when neither side asks for specific ones. Both the
// server (Config.ChunkRows/ChunkBytes) and the client
// (Options.ChunkRows/ChunkBytes) default to these.
const (
	DefaultChunkRows  = 1024
	DefaultChunkBytes = 256 << 10
)

// Frame types. Client-to-server types have the high bit clear,
// server-to-client types have it set.
const (
	// TypeHello is the client handshake: Magic then a version byte.
	TypeHello byte = 0x01
	// TypeExec carries one SQL statement as UTF-8 text.
	TypeExec byte = 0x02
	// TypeDatalog carries one PRISMAlog query as UTF-8 text.
	TypeDatalog byte = 0x03
	// TypePrepare carries one SQL statement with '?'/'$n' placeholders;
	// the server answers PrepareOK (statement id + arity) or Error.
	TypePrepare byte = 0x04
	// TypeBindExec executes a prepared statement: a statement id and the
	// bound parameter values. Answered by Result or Error; an unknown or
	// closed statement id is a statement-level Error, not a disconnect.
	TypeBindExec byte = 0x05
	// TypeClosePrepared discards a prepared statement by id. Answered by
	// a Result whose Msg confirms the close (closing an unknown id is
	// also just a statement-level Error).
	TypeClosePrepared byte = 0x06
	// TypeExecStream carries one SQL statement for chunked execution:
	// a uint32 row budget and a uint32 byte budget per chunk (0 picks
	// the server default), then the statement text. A relation-producing
	// statement is answered by ResultHead, zero or more RowChunk frames
	// and a ResultEnd; anything else (DDL, DML, transaction control) by
	// a single Result frame, exactly as TypeExec would.
	TypeExecStream byte = 0x07
	// TypeBatch carries N statements in one frame, each either SQL text
	// or a prepared-statement execution (see BatchStmt). The server
	// answers with exactly N frames, one Result or Error per statement
	// in order; a statement-level error fails that statement only — the
	// rest of the batch still executes and the connection stays usable.
	TypeBatch byte = 0x08
	// TypeReplSubscribe turns the connection into a replication stream:
	// the subscriber's epoch and its durable per-log positions (see
	// repl.go). The server answers with a ReplStatus carrying the
	// catalog, then ships ReplRecords/ReplStatus frames until either
	// side disconnects. No other frame type is valid afterwards.
	TypeReplSubscribe byte = 0x09

	// TypeHelloOK acknowledges the handshake: a version byte then a
	// length-prefixed server banner, optionally followed by the server's
	// replication role, epoch and primary address (see EncodeHelloOK).
	TypeHelloOK byte = 0x81
	// TypeResult carries an encoded Result.
	TypeResult byte = 0x82
	// TypeError carries an error, either as a coded payload
	// ([NUL][code][text] — see EncodeError) or as legacy bare UTF-8
	// text. Statement errors leave the connection usable; handshake and
	// protocol errors are followed by a close. During a streamed result
	// (after ResultHead, before ResultEnd) an Error frame terminates the
	// stream in place of further chunks; the connection stays usable.
	TypeError byte = 0x83
	// TypePrepareOK answers a Prepare: uint32 statement id, uint16
	// parameter count.
	TypePrepareOK byte = 0x84
	// TypeResultHead opens a streamed result: status strings and the
	// relation schema, before any tuples exist. Tuples follow in
	// RowChunk frames.
	TypeResultHead byte = 0x85
	// TypeRowChunk carries one batch of a streamed result's tuples:
	// a uint32 count then each tuple in the relation encoding.
	TypeRowChunk byte = 0x86
	// TypeResultEnd closes a streamed result: the total row count and
	// the statement's simulated and wall-clock execution times (known
	// only once the last tuple has been produced).
	TypeResultEnd byte = 0x87
	// TypeReplRecords ships one fragment log's new bytes (or a full
	// fragment resync) to a subscribed replica.
	TypeReplRecords byte = 0x88
	// TypeReplStatus commits a shipped batch: the primary's epoch and
	// commit watermark; the first one also carries the table catalog.
	TypeReplStatus byte = 0x89
)

// ErrFrameTooLarge reports a frame whose declared payload exceeds the
// reader's limit.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ---------- coded errors ----------

// Error classification codes carried in a coded Error frame. A coded
// payload opens with a NUL byte — legacy payloads are bare non-empty
// UTF-8 message text, which never starts with NUL — followed by the
// code, then the message. DecodeError accepts both formats, so either
// end may be older than the other.
const (
	// ErrCodeGeneric marks an error with no retry guidance: the
	// statement failed and re-running it is the caller's judgment call.
	ErrCodeGeneric byte = 0x00
	// ErrCodeRetryable marks a transient transaction failure (deadlock
	// victim, write-write conflict, clean abort): the transaction did
	// NOT commit and the client may safely re-run it from BEGIN.
	ErrCodeRetryable byte = 0x01
	// ErrCodeDeadline marks a statement that exceeded its lock-wait
	// deadline. The transaction aborted cleanly; retryable, but a
	// client may prefer to give up rather than queue again.
	ErrCodeDeadline byte = 0x02
	// ErrCodeRedirect marks a write rejected by a read-only replica: the
	// statement definitively did not run, and the message names the
	// primary to retry against. Routing clients re-probe roles and
	// re-run; a promotion may also turn the same endpoint writable.
	ErrCodeRedirect byte = 0x03
	// ErrCodeOverloaded marks a statement shed by admission control (or
	// a connection refused at the MaxConns limit): nothing ran, and the
	// client should back off and retry — client.Retry's decorrelated
	// backoff absorbs these, and routing clients may prefer another
	// endpoint first.
	ErrCodeOverloaded byte = 0x04
	// ErrCodeAuth marks an authentication or authorization failure:
	// bad credentials at handshake or a statement touching a table the
	// tenant holds no grant on. Never retryable — re-running cannot
	// succeed until an administrator changes the user or its grants.
	ErrCodeAuth byte = 0x05
)

// EncodeError builds a coded Error payload.
func EncodeError(code byte, msg string) []byte {
	buf := make([]byte, 0, 2+len(msg))
	buf = append(buf, 0x00, code)
	return append(buf, msg...)
}

// DecodeError reads an Error payload in either format: coded
// ([NUL][code][text]) or legacy bare text (decoded as ErrCodeGeneric).
func DecodeError(payload []byte) (code byte, msg string) {
	if len(payload) >= 2 && payload[0] == 0x00 {
		return payload[1], string(payload[2:])
	}
	return ErrCodeGeneric, string(payload)
}

// RetryableCode reports whether code promises the statement's
// transaction did not commit and may safely be re-run.
func RetryableCode(code byte) bool {
	return code == ErrCodeRetryable || code == ErrCodeDeadline ||
		code == ErrCodeRedirect || code == ErrCodeOverloaded
}

// ---------- frame/encode buffer reuse ----------

// maxPooledBuf caps the capacity of buffers returned to the pool so a
// single giant frame cannot pin its allocation forever.
const maxPooledBuf = 1 << 20

// bufPool recycles frame payload and encode buffers. Pipelined
// workloads read and encode thousands of frames per second; without
// reuse every frame is a fresh allocation the GC must chase.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf takes a reusable byte buffer (length 0) from the pool.
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf returns a buffer to the pool. Safe only once nothing aliases
// the buffer's bytes — all Decode* helpers copy what they keep, so a
// frame payload may be recycled as soon as its statement has executed.
func PutBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// KeepBuf is buf emptied for its next use by an owner that holds it across
// statements — or, past the capacity PutBuf refuses, a fresh small buffer,
// so one giant result does not stay pinned to its connection either.
func KeepBuf(buf []byte) []byte {
	if cap(buf) > maxPooledBuf {
		return make([]byte, 0, 4096)
	}
	return buf[:0]
}

// WriteFrame writes one frame to w. A local header array would escape
// through the io.Writer call — a heap allocation per frame — so on the
// *bufio.Writer every connection writes through, the header is built in
// the writer's own spare buffer.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok && bw.Available() >= 5 {
		hdr = bw.AvailableBuffer()[:5]
	} else {
		hdr = make([]byte, 5)
	}
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r, refusing payloads larger than max
// (DefaultMaxFrame when max <= 0) before allocating anything.
func ReadFrame(r io.Reader, max int) (byte, []byte, error) {
	return ReadFrameBuf(r, max, nil)
}

// ReadFrameBuf is ReadFrame with payload-buffer reuse: when buf has
// enough capacity the payload is read into it (the returned slice
// aliases buf); otherwise a new buffer is allocated. Callers recycling
// buffers through GetBuf/PutBuf must not return one to the pool while
// its payload is still referenced.
func ReadFrameBuf(r io.Reader, max int, buf []byte) (byte, []byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	// As in WriteFrame, the header never leaves a *bufio.Reader's own
	// buffer; any other reader pays one allocation for it.
	var n int
	var typ byte
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err := br.Peek(5)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF // what io.ReadFull calls a torn header
			}
			return 0, nil, err
		}
		n, typ = int(binary.BigEndian.Uint32(hdr)), hdr[4]
		br.Discard(5) // cannot fail: Peek just buffered them
	} else {
		hdr := make([]byte, 5)
		if _, err := io.ReadFull(r, hdr); err != nil {
			return 0, nil, err
		}
		n, typ = int(binary.BigEndian.Uint32(hdr)), hdr[4]
	}
	if n < 1 {
		return 0, nil, fmt.Errorf("wire: frame with zero-length payload")
	}
	if n > max {
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, max)
	}
	var payload []byte
	if cap(buf) >= n-1 {
		payload = buf[:n-1]
	} else {
		payload = make([]byte, n-1)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: truncated frame body: %w", err)
	}
	return typ, payload, nil
}

// EncodeHello builds the Hello payload.
func EncodeHello() []byte {
	return append([]byte(Magic), Version)
}

// HelloCreds are the optional tenant credentials a Hello frame carries
// after the magic and version byte: two length-prefixed strings. A
// legacy Hello stops at the version byte and decodes with nil creds —
// servers with no user table accept it, servers requiring auth refuse
// with a coded ErrCodeAuth Error.
type HelloCreds struct {
	Tenant string
	Secret string
}

// MaxCredLen is the longest tenant or secret a Hello can carry: each
// travels behind a 16-bit length.
const MaxCredLen = 1<<16 - 1

// EncodeHelloCreds builds a Hello payload carrying tenant credentials,
// each at most MaxCredLen bytes.
func EncodeHelloCreds(tenant, secret string) []byte {
	buf := make([]byte, 0, len(Magic)+5+len(tenant)+len(secret))
	buf = append(buf, Magic...)
	buf = append(buf, Version)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(tenant)))
	buf = append(buf, tenant...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(secret)))
	return append(buf, secret...)
}

// DecodeHello validates a Hello payload, returning the client version.
// Credentialed Hellos (see EncodeHelloCreds) validate too — callers
// that don't authenticate simply ignore the trailer.
func DecodeHello(payload []byte) (int, error) {
	ver, _, err := DecodeHelloCreds(payload)
	return ver, err
}

// DecodeHelloCreds validates a Hello payload and extracts the optional
// credential trailer; creds is nil for a legacy credential-less Hello.
func DecodeHelloCreds(payload []byte) (ver int, creds *HelloCreds, err error) {
	if len(payload) < len(Magic)+1 || string(payload[:len(Magic)]) != Magic {
		return 0, nil, fmt.Errorf("wire: bad handshake magic")
	}
	ver = int(payload[len(Magic)])
	rest := payload[len(Magic)+1:]
	if len(rest) == 0 {
		return ver, nil, nil
	}
	tenant, n, err := decodeString16(rest)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: Hello credential tenant: %w", err)
	}
	secret, m, err := decodeString16(rest[n:])
	if err != nil {
		return 0, nil, fmt.Errorf("wire: Hello credential secret: %w", err)
	}
	if n+m != len(rest) {
		return 0, nil, fmt.Errorf("wire: %d trailing bytes after Hello credentials", len(rest)-n-m)
	}
	if tenant == "" {
		return 0, nil, fmt.Errorf("wire: Hello credentials with empty tenant")
	}
	return ver, &HelloCreds{Tenant: tenant, Secret: secret}, nil
}

func decodeString16(buf []byte) (string, int, error) {
	if len(buf) < 2 {
		return "", 0, fmt.Errorf("wire: truncated string header")
	}
	n := int(binary.BigEndian.Uint16(buf))
	if len(buf) < 2+n {
		return "", 0, fmt.Errorf("wire: truncated string body (want %d bytes)", n)
	}
	return string(buf[2 : 2+n]), 2 + n, nil
}

// EncodePrepareOK builds a PrepareOK payload.
func EncodePrepareOK(id uint32, nparams int) []byte {
	var buf [6]byte
	binary.BigEndian.PutUint32(buf[:4], id)
	binary.BigEndian.PutUint16(buf[4:], uint16(nparams))
	return buf[:]
}

// DecodePrepareOK reads a PrepareOK payload.
func DecodePrepareOK(payload []byte) (id uint32, nparams int, err error) {
	if len(payload) != 6 {
		return 0, 0, fmt.Errorf("wire: PrepareOK payload of %d bytes", len(payload))
	}
	return binary.BigEndian.Uint32(payload[:4]), int(binary.BigEndian.Uint16(payload[4:])), nil
}

// MaxBindArgs is the largest argument count a BindExec frame can carry
// (the arity field is a uint16; sqlparse caps statement arity to match).
const MaxBindArgs = 1<<16 - 1

// EncodeBindExec builds a BindExec payload: statement id, arity, then
// each bound value in the relation encoding. The caller must keep
// len(args) within MaxBindArgs.
func EncodeBindExec(id uint32, args []value.Value) []byte {
	// A tag plus an 8-byte word covers every fixed-width value and a
	// string's 4-byte length; the string bytes come on top.
	size := 6 + 9*len(args)
	for _, v := range args {
		size += len(v.Str())
	}
	buf := make([]byte, 6, size)
	binary.BigEndian.PutUint32(buf[:4], id)
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(args)))
	for _, v := range args {
		buf = value.AppendValue(buf, v)
	}
	return buf
}

// DecodeBindExec reads a BindExec payload.
func DecodeBindExec(payload []byte) (uint32, []value.Value, error) {
	if len(payload) < 6 {
		return 0, nil, fmt.Errorf("wire: truncated BindExec header")
	}
	id := binary.BigEndian.Uint32(payload[:4])
	n := int(binary.BigEndian.Uint16(payload[4:6]))
	args := make([]value.Value, 0, n)
	off := 6
	for i := 0; i < n; i++ {
		v, used, err := value.DecodeValue(payload[off:])
		if err != nil {
			return 0, nil, fmt.Errorf("wire: BindExec value %d: %w", i, err)
		}
		off += used
		args = append(args, v)
	}
	if off != len(payload) {
		return 0, nil, fmt.Errorf("wire: %d trailing bytes after BindExec", len(payload)-off)
	}
	return id, args, nil
}

// EncodeClosePrepared builds a ClosePrepared payload.
func EncodeClosePrepared(id uint32) []byte {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], id)
	return buf[:]
}

// DecodeClosePrepared reads a ClosePrepared payload.
func DecodeClosePrepared(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("wire: ClosePrepared payload of %d bytes", len(payload))
	}
	return binary.BigEndian.Uint32(payload), nil
}

// Result is one statement's outcome on the wire; it mirrors core.Result
// without importing the engine.
type Result struct {
	// Rel holds query output (SELECT / PRISMAlog); nil for DDL/DML.
	Rel *value.Relation
	// Rows is query output the engine already put in the tuple encoding
	// (core.Result.Rows). It is an encoder's input only: it takes Rel's
	// place in the frame byte for byte, and a decoded Result has Rel.
	Rows *value.EncodedRows
	// Affected counts rows touched by DML.
	Affected int
	// Msg describes DDL and transaction-control outcomes.
	Msg string
	// Plan is the optimized logical plan of a SELECT.
	Plan string
	// SimTime is the simulated 1988-machine response time.
	SimTime time.Duration
	// WallTime is the server's real execution time.
	WallTime time.Duration
	// QueueTime is how long the statement waited in the server's
	// admission queue before executing; zero when admission control is
	// off or the statement was admitted immediately. Encoded only when
	// nonzero, so pre-admission decoders still read the result.
	QueueTime time.Duration
}

const (
	resultHasRel   byte = 1 << 0
	resultHasQueue byte = 1 << 1
)

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func decodeString(buf []byte) (string, int, error) {
	if len(buf) < 4 {
		return "", 0, fmt.Errorf("wire: truncated string header")
	}
	n := int(binary.BigEndian.Uint32(buf))
	if len(buf) < 4+n {
		return "", 0, fmt.Errorf("wire: truncated string body (want %d bytes)", n)
	}
	return string(buf[4 : 4+n]), 4 + n, nil
}

// EncodeResult encodes r for a Result frame.
func EncodeResult(r *Result) []byte {
	return AppendResult(nil, r)
}

// AppendResult appends r's Result-frame encoding to dst and returns it
// — the allocation-free form of EncodeResult for callers that reuse an
// encode buffer across statements (the server's reply writer).
func AppendResult(dst []byte, r *Result) []byte {
	var flags byte
	size := 41 + len(r.Msg) + len(r.Plan)
	// The reservation is the encoded length, not the simulated footprint
	// Relation.Size reports (24+16 a column per row, 56 bytes for a row
	// that encodes in 20).
	switch {
	case r.Rows != nil:
		flags |= resultHasRel
		size += value.SchemaEncodedLen(r.Rows.Schema) + 4 + len(r.Rows.Bytes)
	case r.Rel != nil:
		flags |= resultHasRel
		size += value.SchemaEncodedLen(r.Rel.Schema) + 4 + value.EncodedBound(r.Rel.Size(), r.Rel.Len(), r.Rel.Schema.Len())
	}
	if r.QueueTime != 0 {
		flags |= resultHasQueue
	}
	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	buf := append(dst, flags)
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(r.Affected)))
	buf = appendString(buf, r.Msg)
	buf = appendString(buf, r.Plan)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.SimTime.Nanoseconds()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.WallTime.Nanoseconds()))
	if r.QueueTime != 0 {
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.QueueTime.Nanoseconds()))
	}
	switch {
	case r.Rows != nil:
		buf = value.AppendSchema(buf, r.Rows.Schema)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Rows.N))
		buf = append(buf, r.Rows.Bytes...)
	case r.Rel != nil:
		buf = value.AppendRelation(buf, r.Rel)
	}
	return buf
}

// DecodeResult decodes a Result frame payload.
func DecodeResult(buf []byte) (*Result, error) {
	if len(buf) < 9 {
		return nil, fmt.Errorf("wire: truncated result header")
	}
	flags := buf[0]
	r := &Result{Affected: int(int64(binary.BigEndian.Uint64(buf[1:9])))}
	off := 9
	var n int
	var err error
	if r.Msg, n, err = decodeString(buf[off:]); err != nil {
		return nil, err
	}
	off += n
	if r.Plan, n, err = decodeString(buf[off:]); err != nil {
		return nil, err
	}
	off += n
	if len(buf) < off+16 {
		return nil, fmt.Errorf("wire: truncated result timings")
	}
	r.SimTime = time.Duration(int64(binary.BigEndian.Uint64(buf[off:])))
	r.WallTime = time.Duration(int64(binary.BigEndian.Uint64(buf[off+8:])))
	off += 16
	if flags&resultHasQueue != 0 {
		if len(buf) < off+8 {
			return nil, fmt.Errorf("wire: truncated result queue timing")
		}
		r.QueueTime = time.Duration(int64(binary.BigEndian.Uint64(buf[off:])))
		off += 8
	}
	if flags&resultHasRel != 0 {
		rel, used, err := value.DecodeRelation(buf[off:])
		if err != nil {
			return nil, err
		}
		off += used
		r.Rel = rel
	}
	if off != len(buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after result", len(buf)-off)
	}
	return r, nil
}

// ---------- chunked result streaming ----------

// EncodeExecStream builds an ExecStream payload: per-chunk row and byte
// budgets (0 = server default) followed by the statement text.
func EncodeExecStream(chunkRows, chunkBytes int, sql string) []byte {
	buf := make([]byte, 0, 8+len(sql))
	buf = binary.BigEndian.AppendUint32(buf, uint32(chunkRows))
	buf = binary.BigEndian.AppendUint32(buf, uint32(chunkBytes))
	return append(buf, sql...)
}

// DecodeExecStream reads an ExecStream payload.
func DecodeExecStream(payload []byte) (chunkRows, chunkBytes int, sql string, err error) {
	if len(payload) < 8 {
		return 0, 0, "", fmt.Errorf("wire: truncated ExecStream header")
	}
	chunkRows = int(binary.BigEndian.Uint32(payload[:4]))
	chunkBytes = int(binary.BigEndian.Uint32(payload[4:8]))
	return chunkRows, chunkBytes, string(payload[8:]), nil
}

// ResultHead is the opening frame of a streamed result: everything a
// client needs before the first tuple arrives.
type ResultHead struct {
	// Msg mirrors Result.Msg (normally empty for relation results).
	Msg string
	// Plan is the optimized logical plan of the SELECT.
	Plan string
	// Schema is the result relation's schema.
	Schema *value.Schema
}

// EncodeResultHead encodes h for a ResultHead frame.
func EncodeResultHead(h *ResultHead) []byte {
	buf := make([]byte, 0, 16+len(h.Msg)+len(h.Plan)+8*h.Schema.Len())
	buf = appendString(buf, h.Msg)
	buf = appendString(buf, h.Plan)
	return value.AppendSchema(buf, h.Schema)
}

// DecodeResultHead decodes a ResultHead frame payload.
func DecodeResultHead(buf []byte) (*ResultHead, error) {
	h := &ResultHead{}
	var off, n int
	var err error
	if h.Msg, n, err = decodeString(buf); err != nil {
		return nil, err
	}
	off += n
	if h.Plan, n, err = decodeString(buf[off:]); err != nil {
		return nil, err
	}
	off += n
	if h.Schema, n, err = value.DecodeSchema(buf[off:]); err != nil {
		return nil, err
	}
	off += n
	if off != len(buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after result head", len(buf)-off)
	}
	return h, nil
}

// EncodeRowChunk encodes one batch of tuples for a RowChunk frame:
// a uint32 count then each tuple. (The server's streaming loop builds
// chunks incrementally against its byte budget; this helper is the
// reference encoding used by tests and small producers.)
func EncodeRowChunk(tuples []value.Tuple) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(tuples)))
	for _, t := range tuples {
		buf = value.AppendTuple(buf, t)
	}
	return buf
}

// DecodeRowChunk decodes a RowChunk frame payload, validating each
// tuple's arity against the stream's schema.
func DecodeRowChunk(buf []byte, schema *value.Schema) ([]value.Tuple, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("wire: truncated row chunk header")
	}
	arity := -1
	if schema != nil {
		arity = schema.Len()
	}
	tuples, used, err := value.DecodeFlatTuples(buf[4:], int(binary.BigEndian.Uint32(buf)), arity, "wire: chunk tuple")
	if err != nil {
		return nil, err
	}
	if trailing := len(buf) - 4 - used; trailing != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after row chunk", trailing)
	}
	return tuples, nil
}

// ResultEnd closes a streamed result.
type ResultEnd struct {
	// Rows is the total number of tuples streamed.
	Rows int64
	// SimTime is the simulated 1988-machine response time.
	SimTime time.Duration
	// WallTime is the server's real execution time.
	WallTime time.Duration
}

// EncodeResultEnd encodes e for a ResultEnd frame.
func EncodeResultEnd(e *ResultEnd) []byte {
	buf := make([]byte, 0, 24)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Rows))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.SimTime.Nanoseconds()))
	return binary.BigEndian.AppendUint64(buf, uint64(e.WallTime.Nanoseconds()))
}

// DecodeResultEnd decodes a ResultEnd frame payload.
func DecodeResultEnd(buf []byte) (*ResultEnd, error) {
	if len(buf) != 24 {
		return nil, fmt.Errorf("wire: ResultEnd payload of %d bytes", len(buf))
	}
	return &ResultEnd{
		Rows:     int64(binary.BigEndian.Uint64(buf[:8])),
		SimTime:  time.Duration(int64(binary.BigEndian.Uint64(buf[8:16]))),
		WallTime: time.Duration(int64(binary.BigEndian.Uint64(buf[16:24]))),
	}, nil
}

// ---------- batched execution ----------

// BatchStmt is one statement of a Batch frame: either SQL text or the
// execution of an already-prepared statement with bound values.
type BatchStmt struct {
	// SQL is the statement text (used when Bind is false).
	SQL string
	// Bind selects prepared-statement execution: ID names a statement
	// prepared on this connection and Args carries the bound values.
	Bind bool
	ID   uint32
	Args []value.Value
}

// Batch sub-statement kinds on the wire.
const (
	batchKindSQL  byte = 0
	batchKindBind byte = 1
)

// EncodeBatch builds a Batch payload: a uint32 statement count, then
// per statement a kind byte followed by either a length-prefixed SQL
// string or a BindExec-style id/arity/values block. Callers keep each
// statement's len(Args) within MaxBindArgs.
func EncodeBatch(stmts []BatchStmt) []byte {
	size := 4
	for i := range stmts {
		size += 11 + len(stmts[i].SQL) + 8*len(stmts[i].Args)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(stmts)))
	for i := range stmts {
		st := &stmts[i]
		if !st.Bind {
			buf = append(buf, batchKindSQL)
			buf = appendString(buf, st.SQL)
			continue
		}
		buf = append(buf, batchKindBind)
		buf = binary.BigEndian.AppendUint32(buf, st.ID)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(st.Args)))
		for _, v := range st.Args {
			buf = value.AppendValue(buf, v)
		}
	}
	return buf
}

// DecodeBatch reads a Batch payload. Decoded statements never alias
// the payload buffer.
func DecodeBatch(payload []byte) ([]BatchStmt, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: truncated Batch header")
	}
	n := int(binary.BigEndian.Uint32(payload))
	off := 4
	// Every encoded statement is at least 5 bytes; never trust the
	// count beyond what the payload could possibly hold.
	stmts := make([]BatchStmt, 0, min(n, (len(payload)-off)/5+1))
	for i := 0; i < n; i++ {
		if off >= len(payload) {
			return nil, fmt.Errorf("wire: truncated Batch statement %d", i)
		}
		kind := payload[off]
		off++
		switch kind {
		case batchKindSQL:
			sql, used, err := decodeString(payload[off:])
			if err != nil {
				return nil, fmt.Errorf("wire: Batch statement %d: %w", i, err)
			}
			off += used
			stmts = append(stmts, BatchStmt{SQL: sql})
		case batchKindBind:
			if len(payload)-off < 6 {
				return nil, fmt.Errorf("wire: truncated Batch bind header at statement %d", i)
			}
			id := binary.BigEndian.Uint32(payload[off:])
			nargs := int(binary.BigEndian.Uint16(payload[off+4:]))
			off += 6
			args := make([]value.Value, 0, min(nargs, len(payload)-off+1))
			for j := 0; j < nargs; j++ {
				v, used, err := value.DecodeValue(payload[off:])
				if err != nil {
					return nil, fmt.Errorf("wire: Batch statement %d value %d: %w", i, j, err)
				}
				off += used
				args = append(args, v)
			}
			stmts = append(stmts, BatchStmt{Bind: true, ID: id, Args: args})
		default:
			return nil, fmt.Errorf("wire: Batch statement %d has unknown kind 0x%02x", i, kind)
		}
	}
	if off != len(payload) {
		return nil, fmt.Errorf("wire: %d trailing bytes after Batch", len(payload)-off)
	}
	return stmts, nil
}
