package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/value"
)

// Replication frame payloads. A replica subscribes with its epoch and
// the durable position of every fragment log it already holds; the
// primary answers with a ReplStatus carrying its epoch, commit
// watermark and table catalog, then ships batches: zero or more
// ReplRecords frames (one per fragment log with news) closed by a
// ReplStatus whose watermark makes the batch visible. Every shipped
// frame is stamped with the primary's epoch so a fenced-off stale
// primary's records are refused by the subscriber.

// Replication roles a HelloOK carries.
const (
	RolePrimary byte = 'p'
	RoleReplica byte = 'r'
)

// ReplRecords kinds.
const (
	// ReplIncremental appends raw log bytes at a known offset.
	ReplIncremental byte = 0
	// ReplFullSync replaces the fragment wholesale: a checkpoint image
	// plus the full log tail (sent on first contact, or when the
	// primary's log was checkpoint-truncated under the subscriber).
	ReplFullSync byte = 1
)

// ReplPosition is one fragment log's durable replication position.
type ReplPosition struct {
	Log string // fragment log segment name (wal-<table>#<i>)
	Gen uint64 // checkpoint generation the offset is relative to
	Off int64  // bytes of the log already durably applied
}

// ReplSubscribe is the client payload turning a connection into a
// replication stream.
type ReplSubscribe struct {
	Epoch     uint64
	Positions []ReplPosition
}

// EncodeReplSubscribe builds a ReplSubscribe payload.
func EncodeReplSubscribe(s *ReplSubscribe) []byte {
	buf := binary.BigEndian.AppendUint64(nil, s.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Positions)))
	for _, p := range s.Positions {
		buf = appendString(buf, p.Log)
		buf = binary.BigEndian.AppendUint64(buf, p.Gen)
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.Off))
	}
	return buf
}

// DecodeReplSubscribe reads a ReplSubscribe payload.
func DecodeReplSubscribe(payload []byte) (*ReplSubscribe, error) {
	if len(payload) < 12 {
		return nil, fmt.Errorf("wire: truncated ReplSubscribe")
	}
	s := &ReplSubscribe{Epoch: binary.BigEndian.Uint64(payload)}
	n := int(binary.BigEndian.Uint32(payload[8:]))
	off := 12
	for i := 0; i < n; i++ {
		log, used, err := decodeString(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: ReplSubscribe position %d: %w", i, err)
		}
		off += used
		if len(payload) < off+16 {
			return nil, fmt.Errorf("wire: truncated ReplSubscribe position %d", i)
		}
		gen := binary.BigEndian.Uint64(payload[off:])
		o := int64(binary.BigEndian.Uint64(payload[off+8:]))
		off += 16
		s.Positions = append(s.Positions, ReplPosition{Log: log, Gen: gen, Off: o})
	}
	if off != len(payload) {
		return nil, fmt.Errorf("wire: %d trailing bytes after ReplSubscribe", len(payload)-off)
	}
	return s, nil
}

// ReplTableDef ships one table's definition so a fresh replica can
// create identical fragments (and thus identically named fragment
// logs) before records arrive.
type ReplTableDef struct {
	Name       string
	Schema     *value.Schema
	Strategy   byte
	Column     int
	N          int
	Bounds     []value.Value
	PrimaryKey []int
}

// ReplStatus closes one shipped batch (and opens the stream: the first
// status carries the catalog).
type ReplStatus struct {
	Epoch     uint64
	Watermark uint64
	Tables    []ReplTableDef // non-nil only on the first status
}

// EncodeReplStatus builds a ReplStatus payload.
func EncodeReplStatus(st *ReplStatus) []byte {
	buf := binary.BigEndian.AppendUint64(nil, st.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, st.Watermark)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.Tables)))
	for _, t := range st.Tables {
		buf = appendString(buf, t.Name)
		buf = value.AppendSchema(buf, t.Schema)
		buf = append(buf, t.Strategy)
		buf = binary.BigEndian.AppendUint32(buf, uint32(t.Column))
		buf = binary.BigEndian.AppendUint32(buf, uint32(t.N))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Bounds)))
		for _, b := range t.Bounds {
			buf = value.AppendValue(buf, b)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.PrimaryKey)))
		for _, k := range t.PrimaryKey {
			buf = binary.BigEndian.AppendUint32(buf, uint32(k))
		}
	}
	return buf
}

// DecodeReplStatus reads a ReplStatus payload.
func DecodeReplStatus(payload []byte) (*ReplStatus, error) {
	if len(payload) < 20 {
		return nil, fmt.Errorf("wire: truncated ReplStatus")
	}
	st := &ReplStatus{
		Epoch:     binary.BigEndian.Uint64(payload),
		Watermark: binary.BigEndian.Uint64(payload[8:]),
	}
	n := int(binary.BigEndian.Uint32(payload[16:]))
	off := 20
	for i := 0; i < n; i++ {
		var t ReplTableDef
		var used int
		var err error
		if t.Name, used, err = decodeString(payload[off:]); err != nil {
			return nil, fmt.Errorf("wire: ReplStatus table %d: %w", i, err)
		}
		off += used
		if t.Schema, used, err = value.DecodeSchema(payload[off:]); err != nil {
			return nil, fmt.Errorf("wire: ReplStatus table %d schema: %w", i, err)
		}
		off += used
		if len(payload) < off+13 {
			return nil, fmt.Errorf("wire: truncated ReplStatus table %d", i)
		}
		t.Strategy = payload[off]
		t.Column = int(binary.BigEndian.Uint32(payload[off+1:]))
		t.N = int(binary.BigEndian.Uint32(payload[off+5:]))
		nb := int(binary.BigEndian.Uint32(payload[off+9:]))
		off += 13
		for j := 0; j < nb; j++ {
			v, used, err := value.DecodeValue(payload[off:])
			if err != nil {
				return nil, fmt.Errorf("wire: ReplStatus table %d bound %d: %w", i, j, err)
			}
			off += used
			t.Bounds = append(t.Bounds, v)
		}
		if len(payload) < off+4 {
			return nil, fmt.Errorf("wire: truncated ReplStatus table %d pk", i)
		}
		nk := int(binary.BigEndian.Uint32(payload[off:]))
		off += 4
		if nk > (len(payload)-off)/4 {
			return nil, fmt.Errorf("wire: ReplStatus table %d: %d pk columns exceed payload", i, nk)
		}
		for j := 0; j < nk; j++ {
			t.PrimaryKey = append(t.PrimaryKey, int(binary.BigEndian.Uint32(payload[off:])))
			off += 4
		}
		st.Tables = append(st.Tables, t)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("wire: %d trailing bytes after ReplStatus", len(payload)-off)
	}
	return st, nil
}

// ReplRecords ships news for one fragment log: raw WAL bytes appended
// at Off (ReplIncremental) or a full resync image (ReplFullSync, with
// Ckpt holding the checkpoint segment and Data the whole log).
type ReplRecords struct {
	Epoch uint64
	Log   string
	Kind  byte
	Gen   uint64 // checkpoint generation Data's offsets are relative to
	Off   int64  // ReplIncremental: offset at which Data begins
	Ckpt  []byte // ReplFullSync: checkpoint segment image
	Data  []byte // raw WAL record bytes
}

// EncodeReplRecords builds a ReplRecords payload.
func EncodeReplRecords(r *ReplRecords) []byte {
	buf := binary.BigEndian.AppendUint64(nil, r.Epoch)
	buf = appendString(buf, r.Log)
	buf = append(buf, r.Kind)
	buf = binary.BigEndian.AppendUint64(buf, r.Gen)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Off))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Ckpt)))
	buf = append(buf, r.Ckpt...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Data)))
	return append(buf, r.Data...)
}

// DecodeReplRecords reads a ReplRecords payload.
func DecodeReplRecords(payload []byte) (*ReplRecords, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("wire: truncated ReplRecords")
	}
	r := &ReplRecords{Epoch: binary.BigEndian.Uint64(payload)}
	off := 8
	log, used, err := decodeString(payload[off:])
	if err != nil {
		return nil, fmt.Errorf("wire: ReplRecords log name: %w", err)
	}
	r.Log = log
	off += used
	if len(payload) < off+21 {
		return nil, fmt.Errorf("wire: truncated ReplRecords header")
	}
	r.Kind = payload[off]
	r.Gen = binary.BigEndian.Uint64(payload[off+1:])
	r.Off = int64(binary.BigEndian.Uint64(payload[off+9:]))
	nc := int(binary.BigEndian.Uint32(payload[off+17:]))
	off += 21
	if nc > len(payload)-off {
		return nil, fmt.Errorf("wire: ReplRecords checkpoint of %d bytes exceeds payload", nc)
	}
	r.Ckpt = append([]byte(nil), payload[off:off+nc]...)
	off += nc
	if len(payload) < off+4 {
		return nil, fmt.Errorf("wire: truncated ReplRecords data header")
	}
	nd := int(binary.BigEndian.Uint32(payload[off:]))
	off += 4
	if nd != len(payload)-off {
		return nil, fmt.Errorf("wire: ReplRecords data of %d bytes in %d-byte payload", nd, len(payload)-off)
	}
	r.Data = append([]byte(nil), payload[off:]...)
	return r, nil
}
