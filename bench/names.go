package main

// The metric names are the benchmark's interface: later performance and
// simplicity claims are stated in them, and BENCHMARK.json lists the
// same names (bench_test.go checks that). Changing one is a benchmark
// change, not a refactor.

type metricName struct{ name, unit string }

// endToEnd is what the untraced run reports for every workload.
// Printed with them, but not bounded: fail_ratio, which travels in the
// result line as attempted/failed because its only acceptable value is
// 0; and ops_per_s, cpu_us_per_op and op_p99_us, which did not repeat
// well enough to judge a change by (README.md has the measurements).
// The first two are per-layer metrics of the traced run instead.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"wire_bytes_per_op", "B"},
	{"rss_mb", "MB"},
}

// perLayer is what the traced run reports, whatever the workload: the
// three ladders are replayed in every traced run; only the workload.*
// metrics and trace.overhead_ratio belong to the workload named on the
// command line.
var perLayer = []metricName{
	// attr: the engine, called directly.
	{"attr.put_ns", "ns"},
	{"attr.tryget_ns", "ns"},
	{"attr.putbatch_ns", "ns"},
	{"attr.allocs_per_op", "count"},
	{"attr.events.pushed", "count"},
	{"attr.events.lost", "count"},
	{"attr.events.coalesced", "count"},
	// wire.codec: encode and decode of each op's request and reply.
	{"wire.codec.encode_ns", "ns"},
	{"wire.codec.decode_ns", "ns"},
	{"wire.codec.allocs_per_msg", "count"},
	{"wire.codec.bytes_per_msg", "B"},
	// wire.conn: the same messages echoed over each transport.
	{"wire.conn.tcp.rtt_us", "us"},
	{"wire.conn.unix.rtt_us", "us"},
	{"wire.conn.shm.rtt_us", "us"},
	{"wire.conn.shm.cpu_us_per_msg", "us"},
	{"wire.conn.allocs_per_msg", "count"},
	{"wire.tx_msgs_per_op", "count"},
	{"wire.mux.stalls", "count"},
	{"wire.mux.windowwait_us", "us"},
	{"wire.mux.winups_per_op", "count"},
	// attrspace: Client against Server over the same-host path.
	{"attrspace.put_us", "us"},
	{"attrspace.tryget_us", "us"},
	{"attrspace.putbatch_us", "us"},
	{"attrspace.get_us", "us"},
	{"attrspace.self_us", "us"},
	{"attrspace.allocs_per_op", "count"},
	{"attrspace.server.ops", "count"},
	// tdp: the public handle.
	{"tdp.put_us", "us"},
	{"tdp.tryget_us", "us"},
	{"tdp.get_us", "us"},
	{"tdp.putbatch_us", "us"},
	{"tdp.self_us", "us"},
	{"tdp.allocs_per_op", "count"},
	// attrspace.cache: the LASS's GlobalCache, called directly.
	{"attrspace.cache.hit_us", "us"},
	{"attrspace.cache.miss_us", "us"},
	{"attrspace.cache.hit_ratio", "ratio"},
	{"attrspace.cache.fills", "count"},
	{"attrspace.cache.invalidations", "count"},
	{"attrspace.cache.flushes", "count"},
	{"attrspace.cache.self_us", "us"},
	{"attrspace.cache.put_apply_us", "us"},
	// attrspace.router: writes through the shard router, and straight
	// at a shard.
	{"attrspace.router.put_us", "us"},
	{"attrspace.router.putbatch_us", "us"},
	{"attrspace.router.self_us", "us"},
	{"attrspace.shard.put_us", "us"},
	{"attrspace.shard.tryget_us", "us"},
	{"attrspace.router.pooled", "count"},
	{"attrspace.router.fallback", "count"},
	{"attrspace.router.shard_errors", "count"},
	// The launch flow's layers.
	{"procsim.cycle_us", "us"},
	{"procsim.allocs_per_op", "count"},
	{"tdp.process.handshake_us", "us"},
	{"tdp.process.self_us", "us"},
	{"tdp.process.attr_ops_per_job", "count"},
	{"classad.match_us", "us"},
	{"condor.plain_job_us", "us"},
	{"condor.allocs_per_job", "count"},
	{"paradyn.tool_overhead_us", "us"},
	{"launch.attr_ops_per_job", "count"},
	{"launch.wire_msgs_per_job", "count"},
	// The named workload's own op loop: the two end-to-end metrics that
	// could not be held to a bound, from its untraced slices, and the
	// span recorder's cost on its op.
	{"workload.ops_per_s", "1/s"},
	{"workload.cpu_us_per_op", "us"},
	{"trace.overhead_ratio", "ratio"},
}
