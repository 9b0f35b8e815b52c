// Package pool is the POOL-X runtime substrate (paper §3.1). POOL-X's
// programming model is "a collection of dynamically created processes"
// that "communicate via message-passing only, i.e. no shared memory",
// with "explicit allocation of the dynamically created processes onto
// processing elements".
//
// The reproduction maps a POOL-X process onto a goroutine with a mailbox.
// Processes are spawned onto an explicit processing element of the
// simulated machine; every message charges sender CPU and network
// transfer time to the virtual clocks, so the placement decisions the
// paper emphasizes ("a proper balance between storage, processing, and
// communication") have measurable cost.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
)

// ProcessID identifies a process for the lifetime of a Runtime.
type ProcessID int64

// Message is one inter-process message.
type Message struct {
	From     ProcessID
	Kind     string
	Body     any
	Bytes    int           // simulated wire size
	ArriveAt time.Duration // virtual arrival time at the receiver's PE

	reply chan reply // non-nil for Call-style requests
}

type reply struct {
	body  any
	bytes int
	err   error
	srcPE int
	sent  time.Duration
}

// Body is a process's main function. It should loop on ctx.Receive and
// return when Receive reports shutdown.
type Body func(ctx *Context) error

// Process is a POOL-X-style process: a mailbox plus a goroutine pinned to
// a processing element.
type Process struct {
	id      ProcessID
	name    string
	pe      *machine.PE
	rt      *Runtime
	mailbox chan Message
	quit    chan struct{}
	done    chan struct{}
	err     atomic.Pointer[error]
	stopped atomic.Bool
}

// ID returns the process id.
func (p *Process) ID() ProcessID { return p.id }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// PE returns the processing element the process was allocated to.
func (p *Process) PE() *machine.PE { return p.pe }

// Err returns the error the body exited with, if it has exited.
func (p *Process) Err() error {
	if e := p.err.Load(); e != nil {
		return *e
	}
	return nil
}

// Stop asks the process to shut down; Receive will report it.
func (p *Process) Stop() {
	if p.stopped.CompareAndSwap(false, true) {
		close(p.quit)
	}
}

// Join blocks until the process body has returned.
func (p *Process) Join() error {
	<-p.done
	return p.Err()
}

// Runtime manages processes over a simulated machine.
type Runtime struct {
	m      *machine.Machine
	nextID atomic.Int64

	mu     sync.Mutex
	byID   map[ProcessID]*Process
	byName map[string]*Process
	wg     sync.WaitGroup
}

// NewRuntime builds a Runtime over a machine.
func NewRuntime(m *machine.Machine) *Runtime {
	return &Runtime{
		m:      m,
		byID:   map[ProcessID]*Process{},
		byName: map[string]*Process{},
	}
}

// Machine returns the underlying simulated machine.
func (rt *Runtime) Machine() *machine.Machine { return rt.m }

// MailboxSize is the buffered capacity of a process mailbox. Sends past
// it block: natural backpressure, as in a bounded POOL-X channel.
const MailboxSize = 256

// Spawn creates a process named name on processing element pe and starts
// its body. Names must be unique among live processes.
func (rt *Runtime) Spawn(name string, pe int, body Body) (*Process, error) {
	if pe < 0 || pe >= rt.m.NumPEs() {
		return nil, fmt.Errorf("pool: PE %d out of range [0,%d)", pe, rt.m.NumPEs())
	}
	p := &Process{
		id:      ProcessID(rt.nextID.Add(1)),
		name:    name,
		pe:      rt.m.PE(pe),
		rt:      rt,
		mailbox: make(chan Message, MailboxSize),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	rt.mu.Lock()
	if name != "" {
		if _, dup := rt.byName[name]; dup {
			rt.mu.Unlock()
			return nil, fmt.Errorf("pool: process %q already exists", name)
		}
		rt.byName[name] = p
	}
	rt.byID[p.id] = p
	rt.wg.Add(1)
	rt.mu.Unlock()

	go func() {
		defer rt.wg.Done()
		defer close(p.done)
		defer func() {
			if r := recover(); r != nil {
				err := fmt.Errorf("pool: process %q panicked: %v", p.name, r)
				p.err.Store(&err)
			}
			rt.mu.Lock()
			delete(rt.byID, p.id)
			if p.name != "" && rt.byName[p.name] == p {
				delete(rt.byName, p.name)
			}
			rt.mu.Unlock()
		}()
		ctx := &Context{p: p}
		if err := body(ctx); err != nil {
			p.err.Store(&err)
		}
	}()
	return p, nil
}

// Lookup finds a live process by name.
func (rt *Runtime) Lookup(name string) (*Process, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p, ok := rt.byName[name]
	return p, ok
}

// Processes returns a snapshot of live processes.
func (rt *Runtime) Processes() []*Process {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Process, 0, len(rt.byID))
	for _, p := range rt.byID {
		out = append(out, p)
	}
	return out
}

// StopAll stops every live process and waits for them to exit.
func (rt *Runtime) StopAll() {
	for _, p := range rt.Processes() {
		p.Stop()
	}
	rt.wg.Wait()
}

// send delivers msg to p, charging virtual costs from srcPE.
func (rt *Runtime) send(srcPE int, p *Process, msg Message) error {
	msg.ArriveAt = rt.m.Send(srcPE, p.pe.ID(), msg.Bytes)
	select {
	case p.mailbox <- msg:
		return nil
	case <-p.quit:
		return fmt.Errorf("pool: process %q is stopping", p.name)
	}
}

// Send delivers an asynchronous message from a non-process context (e.g.
// the global coordinator) running on srcPE.
func (rt *Runtime) Send(srcPE int, to *Process, kind string, body any, bytes int) error {
	return rt.send(srcPE, to, Message{Kind: kind, Body: body, Bytes: bytes})
}

// Call performs a synchronous rendezvous from srcPE: it sends a request
// and blocks until the callee replies (POOL-X method-call style). It
// returns the reply body and charges both message directions.
func (rt *Runtime) Call(srcPE int, to *Process, kind string, body any, bytes int) (any, error) {
	msg := Message{Kind: kind, Body: body, Bytes: bytes, reply: make(chan reply, 1)}
	if err := rt.send(srcPE, to, msg); err != nil {
		return nil, err
	}
	select {
	case r := <-msg.reply:
		if r.err != nil {
			return nil, r.err
		}
		// Charge the reply transfer to the caller's clock (and the
		// machine's cross-PE byte meter).
		rt.m.Arrive(r.srcPE, srcPE, r.bytes, r.sent)
		return r.body, nil
	case <-to.done:
		// The callee exited without replying.
		if err := to.Err(); err != nil {
			return nil, fmt.Errorf("pool: callee %q died: %w", to.name, err)
		}
		return nil, fmt.Errorf("pool: callee %q exited without reply", to.name)
	}
}

// CallSpec is one request of a CallAll batch.
type CallSpec struct {
	To    *Process
	Kind  string
	Body  any
	Bytes int
}

// CallAll performs a fan-out of synchronous requests from srcPE. All
// departures are stamped on the sender's clock *before* any reply is
// awaited, so simulated time is deterministic regardless of host
// goroutine scheduling (a request's start must not depend on another
// request's reply). Results and errors are returned per spec; the
// caller's clock advances to the latest reply arrival.
func (rt *Runtime) CallAll(srcPE int, specs []CallSpec) ([]any, []error) {
	results := make([]any, len(specs))
	errs := make([]error, len(specs))
	msgs := make([]Message, len(specs))
	// Phase 1: charge sender CPU sequentially and stamp arrivals.
	for i, sp := range specs {
		msg := Message{Kind: sp.Kind, Body: sp.Body, Bytes: sp.Bytes, reply: make(chan reply, 1)}
		msg.ArriveAt = rt.m.Send(srcPE, sp.To.pe.ID(), sp.Bytes)
		msgs[i] = msg
	}
	// Phase 2: deliver and await replies concurrently.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var maxArrive time.Duration
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, p *Process, msg Message) {
			defer wg.Done()
			select {
			case p.mailbox <- msg:
			case <-p.quit:
				errs[i] = fmt.Errorf("pool: process %q is stopping", p.name)
				return
			}
			select {
			case r := <-msg.reply:
				if r.err != nil {
					errs[i] = r.err
					return
				}
				arrive := r.sent + rt.m.Net().TransferTime(r.srcPE, srcPE, r.bytes)
				rt.m.CountReplyBytes(r.srcPE, srcPE, r.bytes)
				mu.Lock()
				if arrive > maxArrive {
					maxArrive = arrive
				}
				mu.Unlock()
				results[i] = r.body
			case <-p.done:
				if err := p.Err(); err != nil {
					errs[i] = fmt.Errorf("pool: callee %q died: %w", p.name, err)
				} else {
					errs[i] = fmt.Errorf("pool: callee %q exited without reply", p.name)
				}
			}
		}(i, sp.To, msgs[i])
	}
	wg.Wait()
	rt.m.PE(srcPE).AdvanceTo(maxArrive)
	return results, errs
}

// Context is a process's handle on itself and the runtime.
type Context struct {
	p *Process
}

// Self returns the running process.
func (ctx *Context) Self() *Process { return ctx.p }

// PE returns the processing element the process runs on.
func (ctx *Context) PE() *machine.PE { return ctx.p.pe }

// Runtime returns the owning runtime.
func (ctx *Context) Runtime() *Runtime { return ctx.p.rt }

// Charge adds CPU time to the process's PE clock.
func (ctx *Context) Charge(d time.Duration) { ctx.p.pe.Advance(d) }

// Receive blocks for the next message. ok is false when the process has
// been stopped and should return from its body. The PE clock advances to
// the message's virtual arrival time.
func (ctx *Context) Receive() (Message, bool) {
	select {
	case <-ctx.p.quit:
		// Drain anything already delivered before quitting? POOL-X
		// semantics: stop is immediate; unprocessed messages are lost.
		return Message{}, false
	case msg := <-ctx.p.mailbox:
		ctx.p.pe.AdvanceTo(msg.ArriveAt)
		return msg, true
	}
}

// Reply answers a Call-style request. Replying to a non-Call message is
// an error. The reply transfer is charged when the caller receives it.
func (ctx *Context) Reply(msg Message, body any, bytes int, err error) error {
	if msg.reply == nil {
		return fmt.Errorf("pool: message %q is not a call", msg.Kind)
	}
	// Sender-side CPU for marshalling the reply.
	ctx.p.pe.Advance(ctx.p.rt.m.Cost().MsgCost(bytes))
	msg.reply <- reply{body: body, bytes: bytes, err: err, srcPE: ctx.p.pe.ID(), sent: ctx.p.pe.Clock()}
	return nil
}

// Send delivers an asynchronous message to another process.
func (ctx *Context) Send(to *Process, kind string, body any, bytes int) error {
	msg := Message{From: ctx.p.id, Kind: kind, Body: body, Bytes: bytes}
	return ctx.p.rt.send(ctx.p.pe.ID(), to, msg)
}

// Call performs a synchronous request to another process.
func (ctx *Context) Call(to *Process, kind string, body any, bytes int) (any, error) {
	return ctx.p.rt.Call(ctx.p.pe.ID(), to, kind, body, bytes)
}
