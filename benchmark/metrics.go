package main

import (
	"math"
	"sort"

	fpbtree "repro"
)

// variants are the four cells of every workload, in run order; metric
// names carry Variant.String() as their suffix.
var variants = []fpbtree.Variant{fpbtree.DiskFirst, fpbtree.CacheFirst, fpbtree.DiskOptimized, fpbtree.MicroIndex}

type metricDef struct{ name, unit string }

// endToEndDefs and perLayerDefs are the names BENCHMARK.json declares
// (bench_test.go holds the two in step). Every workload prints all of
// them; README.md says what each means where the workload barely uses
// the layer.
func endToEndDefs() []metricDef {
	defs := []metricDef{{"setup_s", "s"}}
	defs = append(defs, perVariant(metricDef{"ops_s", "ops/s"}, metricDef{"tail_us", "us"})...)
	return append(defs, metricDef{"space_amp", "ratio"}, metricDef{"write_amp", "ratio"}, metricDef{"reopen_s", "s"})
}

func perLayerDefs() []metricDef {
	defs := perVariant(
		metricDef{"tree.search_p50_us", "us"},
		metricDef{"tree.insert_p50_us", "us"},
		metricDef{"tree.scan_p50_us", "us"},
		metricDef{"buffer.gets_per_op", "1/op"},
		metricDef{"buffer.hit_ratio", "ratio"},
		metricDef{"buffer.evictions_per_op", "1/op"},
		metricDef{"buffer.locked_gets_per_op", "1/op"},
		metricDef{"buffer.prefetch_issued_per_op", "1/op"},
		metricDef{"latch.opt_restarts_per_op", "1/op"},
		metricDef{"latch.opt_fallbacks_per_op", "1/op"},
		metricDef{"latch.shared_per_op", "1/op"},
		metricDef{"latch.exclusive_per_op", "1/op"},
		metricDef{"latch.waits_per_op", "1/op"},
		metricDef{"filestore.reads_per_op", "1/op"},
		metricDef{"wal.bytes_per_user_byte", "ratio"},
		metricDef{"filestore.bytes_per_user_byte", "ratio"},
		metricDef{"wal.appends_per_txn", "1/txn"},
		metricDef{"wal.fsyncs_per_txn", "1/txn"},
		metricDef{"wal.rotations_per_txn", "1/txn"},
		metricDef{"commit_p50_us", "us"},
		metricDef{"commit_p99_us", "us"},
		metricDef{"recovery.reopen_ms", "ms"},
		metricDef{"filestore.pagefile_growth_per_cycle_bytes", "bytes"},
		metricDef{"memsim.cycles_per_search", "cycles"},
		metricDef{"memsim.dcache_stall_share", "ratio"},
		metricDef{"memsim.node_visits_per_search", "count"},
	)
	for _, p := range []string{
		"core.inpage_search", "buffer.get_hit", "buffer.readopt", "buffer.get_miss_mem", "buffer.get_miss_file",
		"latch.rlock", "latch.validate", "filestore.read_page", "fault.checksum_verify",
		"wal.append_page", "wal.commit_sync", "obs.hist_record",
	} {
		defs = append(defs, metricDef{"probe." + p + "_ns", "ns"})
	}
	return append(defs, metricDef{"trace.overhead_ratio", "ratio"})
}

// perVariant expands each def into one per cell.
func perVariant(defs ...metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		for _, v := range variants {
			out = append(out, metricDef{d.name + "." + v.String(), d.unit})
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs; the mean of the two middle values when len(xs) is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// exactQuantile is the value at rank ceil(q·n) of xs.
func exactQuantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

// endToEnd computes the untraced run's metrics from its four cells.
func endToEnd(keygen float64, cells []cellResult) map[string]float64 {
	m := map[string]float64{}
	setup := keygen
	var pages, live, stored, reopen float64
	for _, c := range cells {
		setup += c.setup.Seconds()
		rates := make([]float64, len(c.sliceOps))
		for i := range rates {
			rates[i] = float64(c.sliceOps[i]) / c.sliceDur[i].Seconds()
		}
		m["ops_s."+c.variant] = median(rates)
		m["tail_us."+c.variant] = median(c.sliceTail) / 1e3
		pages += float64(c.pages)
		live += float64(c.live)
		stored += float64(c.setupStored + c.write["wal.bytes_written"] + c.write["filestore.bytes_written"])
		reopen += exactQuantile(c.reopenNs, 0.5) / 1e9
	}
	m["setup_s"] = setup
	m["space_amp"] = ratio(pages*pageSize, live*8)
	m["write_amp"] = ratio(stored, live*8)
	m["reopen_s"] = reopen
	return m
}

// perLayer computes one traced cell's metrics into m.
func perLayer(m map[string]float64, c cellResult) {
	set := func(name string, v float64) { m[name+"."+c.variant] = v }
	p50us := func(kind string) float64 { return exactQuantile(c.spanNs[kind], 0.5) / 1e3 }
	set("tree.search_p50_us", p50us("fpbtree.search"))
	set("tree.insert_p50_us", p50us("fpbtree.insert"))
	set("tree.scan_p50_us", p50us("fpbtree.scan"))

	ops := float64(c.measuredOps())
	perOp := func(counters ...string) float64 {
		var n uint64
		for _, k := range counters {
			n += c.serve[k]
		}
		return ratio(float64(n), ops)
	}
	set("buffer.gets_per_op", perOp("buffer.gets"))
	set("buffer.hit_ratio", 1) // no Get, no miss
	if gets := c.serve["buffer.gets"]; gets > 0 {
		set("buffer.hit_ratio", float64(c.serve["buffer.hits"])/float64(gets))
	}
	set("buffer.evictions_per_op", perOp("buffer.evictions"))
	set("buffer.locked_gets_per_op", perOp("pool.shard.locked_gets"))
	set("buffer.prefetch_issued_per_op", perOp("buffer.prefetch_issued"))
	set("latch.opt_restarts_per_op", perOp("latch.opt_restarts"))
	set("latch.opt_fallbacks_per_op", perOp("latch.opt_fallbacks"))
	set("latch.shared_per_op", perOp("latch.shared_acquisitions"))
	set("latch.exclusive_per_op", perOp("latch.exclusive_acquisitions"))
	set("latch.waits_per_op", perOp("latch.reader_waits", "latch.writer_waits"))
	set("filestore.reads_per_op", perOp("filestore.reads"))

	user, txns := float64(c.userBytes), float64(c.txns)
	set("wal.bytes_per_user_byte", ratio(float64(c.write["wal.bytes_written"]), user))
	set("filestore.bytes_per_user_byte", ratio(float64(c.write["filestore.bytes_written"]), user))
	set("wal.appends_per_txn", ratio(float64(c.write["wal.appends"]), txns))
	set("wal.fsyncs_per_txn", ratio(float64(c.write["wal.fsyncs"]), txns))
	set("wal.rotations_per_txn", ratio(float64(c.write["wal.rotations"]), txns))
	set("commit_p50_us", exactQuantile(c.commitNs, 0.5)/1e3)
	set("commit_p99_us", exactQuantile(c.commitNs, 0.99)/1e3)
	set("recovery.reopen_ms", exactQuantile(c.reopenNs, 0.5)/1e6)
	cycles := len(c.pageFile) - 1
	set("filestore.pagefile_growth_per_cycle_bytes", ratio(float64(c.pageFile[cycles]-c.pageFile[0]), float64(cycles)))
}

// traceOverhead is the disk-first cell's untraced median slice rate over
// its traced one: the traced run samples spans on every other slice.
func traceOverhead(c cellResult) float64 {
	var on, off []float64
	for i, traced := range c.traced {
		r := float64(c.sliceOps[i]) / c.sliceDur[i].Seconds()
		if traced {
			on = append(on, r)
		} else {
			off = append(off, r)
		}
	}
	return ratio(median(off), median(on))
}
