package client

import (
	"net"
	"strings"
	"testing"

	"repro/internal/wire"
)

// pipelineFake runs a handshake then answers every statement frame with
// an empty Result.
func pipelineFake(t *testing.T) string {
	return fakeServer(t, func(conn net.Conn) {
		wire.ReadFrame(conn, 0)
		wire.WriteFrame(conn, wire.TypeHelloOK, helloOK())
		for {
			if _, _, err := wire.ReadFrame(conn, 0); err != nil {
				return
			}
			wire.WriteFrame(conn, wire.TypeResult, wire.EncodeResult(&wire.Result{Msg: "ok"}))
		}
	})
}

func TestPipelineQueueingErrorReported(t *testing.T) {
	c, err := Dial(pipelineFake(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := c.Pipeline()
	p.Exec(`SELECT 1`)
	p.ExecPrepared(&Stmt{c: c, id: 1}, struct{}{}) // unbindable argument
	if _, err := p.Run(); err == nil || !strings.Contains(err.Error(), "cannot bind") {
		t.Fatalf("Run error = %v, want bind failure", err)
	}
	// The failed Run cleared the pipeline; it is usable again.
	p.Exec(`SELECT 1`)
	results, err := p.Run()
	if err != nil || len(results) != 1 || results[0].Err != nil {
		t.Fatalf("pipeline after queueing error: %v %+v", err, results)
	}
}

func TestEmptyPipelineAndBatch(t *testing.T) {
	c, err := Dial(pipelineFake(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if results, err := c.Pipeline().Run(); err != nil || results != nil {
		t.Fatalf("empty pipeline: %v %v", err, results)
	}
}

func TestPipelineRepliesCounted(t *testing.T) {
	c, err := Dial(pipelineFake(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := c.Pipeline()
	for i := 0; i < 10; i++ {
		p.Exec(`SELECT 1`)
	}
	results, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("results = %d, want 10", len(results))
	}
	for i, r := range results {
		if r.Err != nil || r.Res == nil || r.Res.Msg != "ok" {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}
