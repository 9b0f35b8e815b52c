package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; the smoke test compares the two.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the served system sees, reported
// per workload by an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"stmts_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"resident_bytes_per_row", "B/row", "lower", 0.02},
}

// perLayer are the metrics of single layers (layer = package name),
// reported by a traced run. A metric that does not apply to the workload
// being run (another workload's operation type) reads 0.
var perLayer = []metricDef{
	// server / admission: from the WallTime/QueueTime every reply carries.
	{Name: "server.exec_wall_us", Unit: "us", Better: "lower"},
	{Name: "admission.queue_us", Unit: "us", Better: "lower"},
	{Name: "server.transport_self_us", Unit: "us", Better: "lower"},
	{Name: "server.transport_share", Unit: "ratio", Better: "lower"},
	{Name: "admission.acquire_release_ns", Unit: "ns", Better: "lower"},
	// client: the tail of the timed window's round trips, then the median
	// round trip per operation type.
	{Name: "client.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.select", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.update", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.insert_delete", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.transfer", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.filter", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.join", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.group", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.join_group", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.scan", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us.scan_update", Unit: "us", Better: "lower"},
	{Name: "client.fail_share", Unit: "ratio", Better: "lower"},
	// wire: codec probes on the workload's own requests and replies.
	{Name: "wire.encode_request_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_request_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_result_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_result_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_io_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.result_bytes", Unit: "B", Better: "lower"},
	// sqlparse / optimizer / core: in-process session probes.
	{Name: "sqlparse.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlparse.normalize_ns", Unit: "ns", Better: "lower"},
	{Name: "core.prepare_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.translate_optimize_us", Unit: "us", Better: "lower"},
	{Name: "core.exec_prepared_us", Unit: "us", Better: "lower"},
	{Name: "core.exec_text_us", Unit: "us", Better: "lower"},
	{Name: "core.vectorized_plan_share", Unit: "ratio", Better: "higher"},
	// algebra / expr / value: kernels over one fact fragment.
	{Name: "algebra.select_batch_mrows_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "algebra.hash_join_batch_mrows_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "algebra.aggregate_batch_mrows_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "algebra.aggregate_row_mrows_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "expr.vec_filter_mrows_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "expr.row_filter_mrows_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "value.batch_from_tuples_mrows_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "value.materialize_mrows_s", Unit: "Mrows/s", Better: "higher"},
	// ofm / storage: standalone fragment probes.
	{Name: "ofm.scan_batch_hit_us", Unit: "us", Better: "lower"},
	{Name: "ofm.scan_batch_rebuild_us", Unit: "us", Better: "lower"},
	{Name: "ofm.rebuild_bytes", Unit: "B", Better: "lower"},
	{Name: "ofm.probe_eq_ns", Unit: "ns", Better: "lower"},
	{Name: "ofm.write_commit_us", Unit: "us", Better: "lower"},
	{Name: "storage.snapshot_versions_us", Unit: "us", Better: "lower"},
	{Name: "storage.hash_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.insert_version_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.bytes_per_row", Unit: "B/row", Better: "lower"},
	// txn / wal.
	{Name: "txn.lock_acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "txn.pin_snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_commit_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	// machine: the simulated 1988 clock on the reference script; exact.
	{Name: "machine.sim_response_ms", Unit: "sim_ms", Better: "lower"},
	{Name: "machine.sim_pe_work_ms", Unit: "sim_ms", Better: "lower"},
	{Name: "machine.net_bytes_per_stmt", Unit: "B", Better: "lower"},
	// process / trace.
	{Name: "process.allocs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "process.cpu_ms_per_kstmt", Unit: "ms", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// resultLine is the one JSON object the driver reads from the last line
// of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line selects defs from m; every listed metric must have been measured.
func line(defs []metricDef, m metrics, attempted, failed int64) (*resultLine, error) {
	out := &resultLine{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func (r *resultLine) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printMetrics lists defs' values by name with their units.
func printMetrics(w io.Writer, title string, defs []metricDef, m metrics) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// printExtras prints measured values no definition lists (sample counts and
// the like), so nothing measured is silently dropped.
func printExtras(w io.Writer, m metrics) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	var names []string
	for n := range m {
		if !known[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.4f\n", n, m[n])
	}
}
