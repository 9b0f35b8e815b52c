package client

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// fakeServer accepts one connection and runs fn over it.
func fakeServer(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fn(conn)
	}()
	return l.Addr().String()
}

// helloOK is the handshake reply of a fake primary.
func helloOK() []byte {
	return wire.EncodeHelloOK(&wire.HelloOK{Version: wire.Version, Banner: "fake", Role: wire.RolePrimary})
}

func TestDialRejectsNonPrismaServer(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		conn.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
	})
	if _, err := Dial(addr); err == nil {
		t.Fatal("Dial accepted a non-PRISMA server")
	}
}

func TestDialSurfacesHandshakeError(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		wire.ReadFrame(conn, 0)
		wire.WriteFrame(conn, wire.TypeError, wire.EncodeError(wire.ErrCodeOverloaded, "server: connection limit reached"))
	})
	_, err := Dial(addr)
	se, ok := err.(*ServerError)
	if !ok {
		t.Fatalf("err = %T %v, want *ServerError", err, err)
	}
	if !strings.Contains(se.Msg, "connection limit") {
		t.Fatalf("msg = %q", se.Msg)
	}
}

// TestDialRejectsOversizedCredentials: the Hello frames the tenant and the
// secret behind 16-bit lengths, so a longer one would wrap and the server
// would read another tenant. Dial must refuse it before it connects.
func TestDialRejectsOversizedCredentials(t *testing.T) {
	var connected atomic.Bool
	addr := fakeServer(t, func(conn net.Conn) {
		connected.Store(true)
		wire.ReadFrame(conn, 0)
		wire.WriteFrame(conn, wire.TypeHelloOK, helloOK())
	})
	long := strings.Repeat("x", 1<<16)
	for _, o := range []Options{{Tenant: long, Secret: "s3cret"}, {Tenant: "acme", Secret: long}} {
		c, err := Dial(addr, o)
		if err == nil {
			c.Close()
			t.Fatalf("Dial accepted a %d-byte tenant and a %d-byte secret", len(o.Tenant), len(o.Secret))
		}
		if !strings.Contains(err.Error(), "65535") {
			t.Errorf("error %q does not name the 65535-byte limit", err)
		}
	}
	if connected.Load() {
		t.Error("Dial connected before refusing the credentials")
	}
}

func TestTransportFailureIsSticky(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		// Valid handshake, then hang up before the first statement reply.
		wire.ReadFrame(conn, 0)
		wire.WriteFrame(conn, wire.TypeHelloOK, helloOK())
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("SELECT 1"); err == nil {
		t.Fatal("Exec succeeded against a hung-up server")
	}
	// Every later call fails fast with the sticky error, no new I/O.
	_, err = c.Exec("SELECT 2")
	if err == nil {
		t.Fatal("Exec succeeded on a broken client")
	}
	if _, ok := err.(*ServerError); ok {
		t.Fatal("transport failure mislabeled as server error")
	}
}

// TestConcurrentCallersSerialize checks the mutex discipline: many
// goroutines sharing one Client must each get a coherent reply.
func TestConcurrentCallersSerialize(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		wire.ReadFrame(conn, 0)
		wire.WriteFrame(conn, wire.TypeHelloOK, helloOK())
		for {
			typ, payload, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			if typ != wire.TypeExec {
				return
			}
			// Echo the statement back in the result message.
			res := &wire.Result{Msg: string(payload)}
			wire.WriteFrame(conn, wire.TypeResult, wire.EncodeResult(res))
		}
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				stmt := strings.Repeat("x", g+1)
				res, err := c.Exec(stmt)
				if err != nil {
					errc <- err
					return
				}
				if res.Msg != stmt {
					errc <- &ServerError{Msg: "interleaved reply: got " + res.Msg + " want " + stmt}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestDialRejectsEmptyHelloOK: a HelloOK must carry the whole reply.
// One that stops after the banner (no role) is refused rather than
// taken for a primary, which would send writes to a replica.
func TestDialRejectsEmptyHelloOK(t *testing.T) {
	for _, payload := range [][]byte{nil, {wire.Version, 0, 0}} {
		addr := fakeServer(t, func(conn net.Conn) {
			wire.ReadFrame(conn, 0)
			wire.WriteFrame(conn, wire.TypeHelloOK, payload)
		})
		if c, err := Dial(addr); err == nil {
			c.Close()
			t.Fatalf("Dial accepted the HelloOK %v", payload)
		}
	}
}

func TestDialRefusesSecretWithoutTenant(t *testing.T) {
	var connected atomic.Bool
	addr := fakeServer(t, func(conn net.Conn) { connected.Store(true) })
	if c, err := Dial(addr, Options{Secret: "s3cret"}); err == nil {
		c.Close()
		t.Fatal("Dial accepted a Secret without a Tenant")
	}
	if connected.Load() {
		t.Error("Dial connected before refusing the credentials")
	}
}

// TestBareTextErrorBreaksConnection: an Error frame whose payload is not
// a coded error is a protocol violation, not a statement error.
func TestBareTextErrorBreaksConnection(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		wire.ReadFrame(conn, 0)
		wire.WriteFrame(conn, wire.TypeHelloOK, helloOK())
		wire.ReadFrame(conn, 0)
		wire.WriteFrame(conn, wire.TypeError, []byte("server: something broke"))
		wire.ReadFrame(conn, 0) // hold the connection until the client drops it
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT 1")
	if err == nil {
		t.Fatal("Exec succeeded on a bare-text Error frame")
	}
	if _, ok := err.(*ServerError); ok {
		t.Fatalf("bare-text Error frame decoded as a server error: %v", err)
	}
	if c.Broken() == nil {
		t.Fatal("connection still usable after a malformed Error frame")
	}
}
