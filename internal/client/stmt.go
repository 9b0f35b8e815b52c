package client

import (
	"fmt"

	"repro/internal/value"
	"repro/internal/wire"
)

// Stmt is a server-side prepared statement: parsed and planned once at
// Prepare, executed many times with bound parameter values. A Stmt is
// tied to the connection that prepared it; like the Client itself it is
// safe for concurrent use but callers serialize.
type Stmt struct {
	c       *Client
	id      uint32
	nParams int
}

// Prepare sends one SQL statement with '?' or '$n' placeholders to be
// parsed and planned server-side.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	typ, payload, err := c.roundTripRaw(wire.TypePrepare, []byte(sql))
	if err != nil {
		return nil, err
	}
	switch typ {
	case wire.TypePrepareOK:
		id, nparams, err := wire.DecodePrepareOK(payload)
		if err != nil {
			return nil, c.breakConn(err)
		}
		return &Stmt{c: c, id: id, nParams: nparams}, nil
	case wire.TypeError:
		return nil, c.serverError(payload)
	default:
		return nil, c.breakConn(fmt.Errorf("client: unexpected frame type 0x%02x", typ))
	}
}

// NumParams returns the statement's parameter arity.
func (s *Stmt) NumParams() int { return s.nParams }

// Exec runs the statement with the given parameter values. Arguments
// may be value.Value or plain Go scalars (int variants, float32/64,
// string, bool, nil).
func (s *Stmt) Exec(args ...any) (*wire.Result, error) {
	if len(args) > wire.MaxBindArgs {
		// The wire arity field is a uint16; encoding more would produce
		// a malformed frame the server must treat as a protocol error.
		return nil, fmt.Errorf("client: %d arguments exceed the %d parameter limit", len(args), wire.MaxBindArgs)
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	return s.c.roundTrip(wire.TypeBindExec, wire.EncodeBindExec(s.id, vals))
}

// Query runs the statement and returns its relation.
func (s *Stmt) Query(args ...any) (*value.Relation, error) {
	res, err := s.Exec(args...)
	if err != nil {
		return nil, err
	}
	if res.Rel == nil {
		return nil, fmt.Errorf("client: statement produced no relation")
	}
	return res.Rel, nil
}

// Close discards the server-side statement. The connection stays
// usable; executing a closed Stmt yields a statement error.
func (s *Stmt) Close() error {
	_, err := s.c.roundTrip(wire.TypeClosePrepared, wire.EncodeClosePrepared(s.id))
	return err
}

// toValues converts Go scalars to engine values.
func toValues(args []any) ([]value.Value, error) {
	out := make([]value.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			out[i] = value.Null
		case value.Value:
			out[i] = v
		case bool:
			out[i] = value.NewBool(v)
		case int:
			out[i] = value.NewInt(int64(v))
		case int32:
			out[i] = value.NewInt(int64(v))
		case int64:
			out[i] = value.NewInt(v)
		case float32:
			out[i] = value.NewFloat(float64(v))
		case float64:
			out[i] = value.NewFloat(v)
		case string:
			out[i] = value.NewString(v)
		default:
			return nil, fmt.Errorf("client: cannot bind %T as parameter %d", a, i+1)
		}
	}
	return out, nil
}
