package main

import (
	"runtime"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/ivm"
	"repro/internal/shard"
	"repro/internal/wal"
)

// counters is a snapshot of every counter the program exposes.
type counters struct {
	cache   cache.Stats
	ivm     ivm.Stats
	wal     wal.Stats
	route   shard.RouteStats
	residue shard.ResidueStats
	apply   shard.ApplyQueueStats
	exec    exec.Counters
	mem     runtime.MemStats
	inSvc   int64
}

func snapshot(s *system) *counters {
	c := &counters{cache: s.svc.CacheStats(), exec: exec.ReadCounters()}
	if s.router != nil {
		c.ivm = s.router.IVMStats()
		c.route = s.router.RouteStats()
		c.residue = s.router.ResidueStats()
		c.apply = s.router.ApplyQueueStats()
	} else {
		c.ivm = s.eng.IVMStats()
		c.wal, _ = s.eng.DurabilityStats()
	}
	if s.wrap != nil {
		c.inSvc = s.wrap.inSvc.Load()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// ratio is a/b, or 0 when b is 0 (the layer did no work of that kind).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns int64, n int64) float64 { return ratio(float64(ns)/1e3, float64(n)) }

// layerMetrics derives the per-layer metrics of the traced phases (open
// and closed) from the span accumulator and the counter deltas. A layer
// that did no work on a workload reports 0.
func layerMetrics(res *result, s *system, tr *layers, b, a *counters, open, closed, base *phase, genS, indexS float64) {
	ops := float64(open.attempted + closed.attempted)
	reads := float64(tr.reads)
	elapsed := (open.elapsed + closed.elapsed).Seconds()
	reported := float64(tr.reported)

	lag, _ := open.lag.quantile(0.99, 10)
	res.add("bench.gen_lag_p99_us", lag, "us")
	res.add("bench.nonempty_share", ratio(float64(tr.nonEmpty), reads), "1")
	res.add("bench.distinct_fp_share", ratio(float64(len(tr.distinct)), reads), "1")

	res.add("server.self_us", us(tr.rtNS-(a.inSvc-b.inSvc), tr.rtN), "us")
	res.add("parser.parse_us", us(tr.parseNS, tr.parseN), "us")
	res.add("ra.normalize_us", us(tr.normNS, tr.normN), "us")
	res.add("ra.fingerprint_us", us(tr.fpNS, tr.normN), "us")
	res.add("core.execute_self_us", us(tr.coreSelfNS, tr.coreN), "us")
	res.add("ivm.serve_share", ratio(float64(a.ivm.Hits-b.ivm.Hits), reads), "1")
	hits, misses := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	res.add("cache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "1")

	res.add("cover.check_us", ratio(float64(tr.checkNS)/1e3, reported), "us")
	res.add("minimize.mina_us", ratio(float64(tr.minNS)/1e3, reported), "us")
	res.add("plan.build_us", ratio(float64(tr.planNS)/1e3, reported), "us")
	res.add("rewrite.fired_share", ratio(float64(tr.rewritten), float64(tr.compiled)), "1")
	res.add("exec.run_us", ratio(float64(tr.execNS)/1e3, reported), "us")
	res.add("exec.accessed_per_read", ratio(float64(tr.accessed), reported), "count")
	res.add("exec.bound_slack", ratio(tr.slackSum, float64(tr.slackN)), "1")
	res.add("exec.fallback_share", ratio(float64(tr.fallback), reported), "1")
	gets, news := a.exec.ArenaGets-b.exec.ArenaGets, a.exec.ArenaNews-b.exec.ArenaNews
	res.add("exec.arena_hit_ratio", ratio(float64(gets-news), float64(gets)), "1")
	sh, sm := a.exec.SigHit-b.exec.SigHit, a.exec.SigMiss-b.exec.SigMiss
	res.add("exec.sig_filter_hit_ratio", ratio(float64(sh), float64(sh+sm)), "1")

	res.add("store.gen_s", genS, "s")
	res.add("store.index_build_s", indexS, "s")
	res.add("store.index_entries_per_tuple", ratio(float64(s.indexes), float64(s.dbSize)), "1")

	writes := float64(tr.writeCalls)
	res.add("core.write_us", us(tr.writeNS, tr.writeCalls), "us")
	res.add("ivm.delta_applies_per_write", ratio(float64(a.ivm.DeltaApplies-b.ivm.DeltaApplies), writes), "1")
	res.add("ivm.fallbacks", float64(a.ivm.Fallbacks-b.ivm.Fallbacks), "count")
	appends := float64(a.wal.Appends - b.wal.Appends)
	res.add("wal.bytes_per_write", ratio(float64(a.wal.SegmentBytes-b.wal.SegmentBytes), appends), "B")
	fsyncs := a.wal.Fsyncs - b.wal.Fsyncs
	res.add("wal.fsync_us_mean", ratio(float64(a.wal.FsyncTotalMicros-b.wal.FsyncTotalMicros), float64(fsyncs)), "us")
	res.add("wal.fsyncs_per_s", ratio(float64(fsyncs), elapsed), "1/s")
	res.add("wal.checkpoints", float64(a.wal.Checkpoints-b.wal.Checkpoints), "count")

	single := float64(a.route.Single - b.route.Single)
	scatter := float64(a.route.Scattered - b.route.Scattered)
	residue := float64(a.route.Residue - b.route.Residue)
	routed := single + scatter + residue
	res.add("shard.route_single_share", ratio(single, routed), "1")
	res.add("shard.route_scatter_share", ratio(scatter, routed), "1")
	res.add("shard.route_residue_share", ratio(residue, routed), "1")
	for k, kind := range routeKinds {
		res.add("shard.read_us."+kind, us(tr.routeNS[k], tr.routeN[k]), "us")
	}
	res.add("shard.bytes_shipped_per_residue", ratio(float64(a.residue.BytesShipped-b.residue.BytesShipped), residue), "B")
	res.add("shard.apply_ops_per_batch", ratio(float64(a.apply.Applied-b.apply.Applied), float64(a.apply.Batches-b.apply.Batches)), "1")
	res.add("shard.apply_depth_max", float64(tr.applyDepthMax), "count")
	shardDeltas := 0.0
	if s.router != nil {
		shardDeltas = ratio(float64(a.ivm.DeltaApplies-b.ivm.DeltaApplies), writes)
	}
	res.add("shard.delta_applies_per_write", shardDeltas, "1")

	res.add("runtime.allocs_per_op", ratio(float64(a.mem.Mallocs-b.mem.Mallocs), ops), "count")
	res.add("runtime.alloc_bytes_per_op", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops), "B")
	res.add("runtime.gc_cycles", float64(a.mem.NumGC-b.mem.NumGC), "count")
	res.add("runtime.gc_pause_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, "ms")

	tp50, _ := open.reads.quantile(0.5, 10)
	up50, _ := base.reads.quantile(0.5, 10)
	res.add("trace.overhead_share", ratio(tp50-up50, up50), "1")
}
