package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one interval at a layer boundary. The spans of one statement
// share its id; parent indexes the recorder's slice (-1 for a root).
type span struct {
	stmt   uint64 // connection<<32 | position in the connection's generator
	name   string
	parent int
	start  time.Duration // from the traced window's start
	dur    time.Duration
	kind   string // operation type, on roots
	n      int    // statements a probe span replayed (0 elsewhere)
}

func stmtID(conn, seq int) uint64 { return uint64(conn)<<32 | uint64(seq) }

// recorder keeps spans in memory; traced runs write them out at the end.
// Each connection appends to its own recorder, so recording takes no lock.
type recorder struct {
	spans []span
}

func (r *recorder) add(s span) int {
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// roundtrip records one operation as the caller saw it: the root spans
// the client call; admission.wait and server.exec are the durations the
// reply reported, laid inside the root after half of what remains (the
// reply says how long they took, not when). The root's self time is the
// transport: everything the round trip spent outside the executor and
// the admission queue.
func (r *recorder) roundtrip(id uint64, kind string, start, rtt time.Duration, t timing) {
	root := r.add(span{stmt: id, name: "client.roundtrip", parent: -1, start: start, dur: rtt, kind: kind})
	at := start + (rtt-t.queue-t.wall)/2
	r.add(span{stmt: id, name: "admission.wait", parent: root, start: at, dur: t.queue})
	r.add(span{stmt: id, name: "server.exec", parent: root, start: at + t.queue, dur: t.wall})
}

// selfTimes returns each span's duration less the part of its interval
// that its child spans cover; overlapping children are counted once and
// a child is clipped to its parent.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := make([][]iv, len(spans))
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.start+s.dur, p.start+p.dur)
		if hi > lo {
			children[s.parent] = append(children[s.parent], iv{lo, hi})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, end := time.Duration(0), s.start
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		self[i] = s.dur - covered
	}
	return self
}

// checkSpans verifies the invariant of a traced statement: server.exec +
// admission.wait + transport self = client.roundtrip, with no child
// clipped (the server cannot have worked longer than the caller waited).
func checkSpans(spans []span, self []time.Duration) error {
	sum := make(map[int]time.Duration)
	for _, s := range spans {
		if s.parent >= 0 {
			sum[s.parent] += s.dur
		}
	}
	for i, s := range spans {
		if s.parent < 0 && s.name == "client.roundtrip" && sum[i]+self[i] != s.dur {
			return fmt.Errorf("trace: statement %#x: children %s + self %s != roundtrip %s", s.stmt, sum[i], self[i], s.dur)
		}
	}
	return nil
}

// spanLine is the JSON form of one span in the trace file.
type spanLine struct {
	Stmt    string `json:"stmt"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Kind    string `json:"kind,omitempty"`
	N       int    `json:"n,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// maxTraceLines bounds the trace file: a point_read window records about
// a million spans, and the first ones say what the rest say.
const maxTraceLines = 60_000

// writeTrace writes the spans as JSON lines and returns the file's path.
func writeTrace(dir, name string, spans []span, self []time.Duration) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if i >= maxTraceLines {
			break
		}
		l := spanLine{Stmt: fmt.Sprintf("%x", s.stmt), Span: s.name, Kind: s.kind, N: s.n,
			StartNs: int64(s.start), DurNs: int64(s.dur), SelfNs: int64(self[i])}
		if s.parent >= 0 {
			l.Parent = spans[s.parent].name
		}
		if err := enc.Encode(l); err != nil {
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// tracedRun drives a second window of the same generators and seed with
// the recorder on, derives the server/admission/client metrics from its
// spans, runs the layer probes, and writes the trace.
func tracedRun(in *instance, cfg *runConfig, m metrics) error {
	recs := make([]*recorder, len(in.conns))
	for i := range recs {
		recs[i] = &recorder{}
	}
	win, err := drive(in.conns, in.gens(cfg), cfg.traced, recs)
	if err != nil {
		return err
	}
	var spans []span
	for _, r := range recs {
		base := len(spans)
		for _, s := range r.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			spans = append(spans, s)
		}
	}
	traced, _ := win.quiet()
	m["trace.overhead_share"] = 1 - traced/m["stmts_per_s"]

	// server / admission / client, from what every reply carried.
	var walls, selfs []time.Duration
	var sumSelf, sumRTT, sumQueue time.Duration
	for _, s := range win.samples {
		self := s.rtt - s.wall - s.queue
		walls, selfs = append(walls, s.wall), append(selfs, self)
		sumSelf, sumRTT, sumQueue = sumSelf+self, sumRTT+s.rtt, sumQueue+s.queue
	}
	if len(win.samples) == 0 {
		return fmt.Errorf("%s: traced window completed no operation", in.w.name)
	}
	m["server.exec_wall_us"] = micros(medianDur(walls))
	m["admission.queue_us"] = micros(sumQueue) / float64(len(win.samples))
	m["server.transport_self_us"] = micros(medianDur(selfs))
	m["server.transport_share"] = float64(sumSelf) / float64(sumRTT)
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "client.rtt_p50_us.") {
			m[d.Name] = 0 // an operation type of another workload
		}
	}
	for k, kind := range in.w.kinds {
		rtts := win.rtts(func(s *sample) bool { return s.kind == k })
		m["client.rtt_p50_us."+kind] = micros(percentile(rtts, 0.50))
		m["client.samples."+kind] = float64(len(rtts))
	}

	probeSpans, err := runProbes(in, cfg, m)
	if err != nil {
		return err
	}
	spans = append(spans, probeSpans...)
	self := selfTimes(spans)
	if err := checkSpans(spans, self); err != nil {
		return err
	}
	m["trace.spans"] = float64(len(spans))
	path, err := writeTrace(cfg.traceTo, fmt.Sprintf("%s-seed%d.jsonl", in.w.name, cfg.seed), spans, self)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(cfg.log, "trace: %d spans, first %d written to %s\n", len(spans), min(len(spans), maxTraceLines), path)
	return nil
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 0.50)
}
