package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"
)

// tracedDefs lists the traced run's metrics in report order. Times are
// host seconds per traced job (mean over the traced phase); inside the
// engine's parallel region they add up over the workers. Counts are totals
// of the traced phase, which has a constant number of jobs, and are exact.
var tracedDefs = []metricDef{
	{name: "bench.job_tail_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "bench.sim_total_s", unit: "s", better: "lower"},
	{name: "bench.unattributed_share", unit: "ratio", better: "lower"},
	{name: "statestore.load_s", unit: "s", better: "lower"},
	{name: "statestore.loads", unit: "count", better: "lower"},
	{name: "statestore.hit_share", unit: "ratio", better: "higher"},
	{name: "methodology.phases_s", unit: "s", better: "lower"},
	{name: "methodology.pause_s", unit: "s", better: "lower"},
	{name: "engine.execute_s", unit: "s", better: "lower"},
	{name: "engine.clone_s", unit: "s", better: "lower"},
	{name: "engine.clones", unit: "count", better: "lower"},
	{name: "engine.other_cpu_s", unit: "s", better: "lower"},
	{name: "engine.parallel_efficiency", unit: "ratio", better: "higher"},
	{name: "device.submit_s", unit: "s", better: "lower"},
	{name: "device.batches", unit: "count", better: "lower"},
	{name: "device.ios", unit: "count", better: "higher"},
	{name: "device.self_s", unit: "s", better: "lower"},
	{name: "device.retries", unit: "count", better: "lower"},
	{name: "composite.self_s", unit: "s", better: "lower"},
	{name: "faulty.self_s", unit: "s", better: "lower"},
	{name: "cache.self_s", unit: "s", better: "lower"},
	{name: "cache.calls", unit: "count", better: "lower"},
	{name: "cache.absorb_share", unit: "ratio", better: "higher"},
	{name: "ftl.inner_s", unit: "s", better: "lower"},
	{name: "ftl.calls", unit: "count", better: "lower"},
	{name: "ftl.page_programs", unit: "count", better: "lower"},
	{name: "ftl.merge_programs", unit: "count", better: "lower"},
	{name: "ftl.page_reads", unit: "count", better: "lower"},
	{name: "ftl.merge_reads", unit: "count", better: "lower"},
	{name: "ftl.erases", unit: "count", better: "lower"},
	{name: "ftl.map_flushes", unit: "count", better: "lower"},
	{name: "ftl.write_amp", unit: "ratio", better: "lower"},
	{name: "flash.est_s", unit: "s", better: "lower"},
	{name: "trace.open_scan_s", unit: "s", better: "lower"},
	{name: "workload.segment_s", unit: "s", better: "lower"},
	{name: "workload.segments", unit: "count", better: "lower"},
	{name: "render.records_s", unit: "s", better: "lower"},
	{name: "render.csv_s", unit: "s", better: "lower"},
	{name: "render.report_s", unit: "s", better: "lower"},
	{name: "render.json_s", unit: "s", better: "lower"},
	{name: "server.admit_p50_ms", unit: "ms", better: "lower"},
	{name: "server.admit_tail_ms", unit: "ms", better: "lower"},
	{name: "server.queue_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "server.run_p50_ms", unit: "ms", better: "lower"},
	{name: "server.fetch_p50_ms", unit: "ms", better: "lower"},
	{name: "server.events_per_job", unit: "count", better: "lower"},
	{name: "server.refused", unit: "count", better: "lower"},
}

// goldenCounts are the traced counts committed in golden/: they repeat bit
// for bit, and a change meant only to speed the simulator up must leave
// every one of them where it is.
var goldenCounts = []string{
	"device.ios", "device.batches", "engine.clones", "workload.segments",
	"cache.calls", "ftl.calls", "ftl.page_programs", "ftl.merge_programs",
	"ftl.page_reads", "ftl.merge_reads", "ftl.erases", "ftl.map_flushes",
}

// attrRow is one line of the "where the time goes" table.
type attrRow struct {
	layer   string
	seconds float64 // mean per traced job, in job-wall terms
	share   float64 // of the job span
}

// tracedPreparer is a kind whose stack can carry interposers.
type tracedPreparer interface {
	prepareTraced(e *env) error
}

// gcCPU returns the runtime's count of CPU seconds spent in the collector.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// layerSplit is one region's interposer totals split into self times.
type layerSplit struct {
	outer, device, composite, faulty, cache, inner time.Duration
}

// split turns one region's inclusive totals into self times. The stack is
// faulty > composite > device > cache-top > inner, any of the first two and
// the fourth possibly absent; each layer's self time is its total minus the
// total of the layer below it.
func split(t *[numLayers]part) layerSplit {
	dev, comp, faulty := t[layerDevice].total, t[layerComposite].total, t[layerFaulty].total
	top, inner := t[layerCacheTop].total, t[layerInner].total
	var s layerSplit
	s.inner = inner
	if t[layerCacheTop].calls > 0 {
		s.cache = top - inner
	} else {
		top = inner
	}
	s.device = dev - top
	s.outer = dev
	if t[layerComposite].calls > 0 {
		s.composite = comp - dev
		s.outer = comp
	}
	if t[layerFaulty].calls > 0 {
		s.faulty = faulty - s.outer
		s.outer = faulty
	}
	return s
}

// tracedRun measures the per-layer metrics: a short phase with tracing off
// for the overhead ratio, the traced phase, then the drivers.
func (r *runResult) tracedRun(ctx context.Context, w *workloadDef, e *env, kinds []kind, ref []jobResult) error {
	for _, k := range kinds {
		if tp, ok := k.(tracedPreparer); ok {
			if err := tp.prepareTraced(e); err != nil {
				return fmt.Errorf("%s: traced set-up %s: %w", w.name, k.name(), err)
			}
		}
	}
	jobs := w.tracedRounds * len(kinds)
	plain := w.runPhase(ctx, e, kinds, jobs, false, time.Time{}, nil)
	r.count(plain, kinds, ref)

	gc := gcCPU()
	traced := w.runPhase(ctx, e, kinds, jobs, true, time.Now(), nil)
	gc = gcCPU() - gc
	r.count(traced, kinds, ref)
	r.phaseWall = traced.wall

	values := r.aggregate(traced, plain, len(kinds), float64(e.nproc))
	values["bench.gc_cpu_share"] = gc / traced.cpu.Seconds()

	if !r.cfg.skipDrivers {
		drv, err := runDrivers()
		if err != nil {
			return err
		}
		programs := values["ftl.page_programs"] + values["ftl.merge_programs"]
		reads := values["ftl.page_reads"] + values["ftl.merge_reads"]
		values["flash.est_s"] = (programs*drv["array.program_ns_per_page"] +
			reads*drv["array.read_ns_per_page"] +
			values["ftl.erases"]*drv["flash.erase_ns_per_block"]) / 1e9 / float64(jobs)
		for _, def := range driverDefs {
			r.add(def, drv[def.name])
		}
	}
	r.opCounts = make(map[string]int64, len(goldenCounts))
	for _, name := range goldenCounts {
		r.opCounts[name] = int64(values[name])
	}
	for _, def := range tracedDefs {
		r.add(def, values[def.name])
	}

	if r.cfg.spansOut != "" {
		res := newReservoir(r.cfg.seed)
		for i := range traced.outcomes {
			res.offer(traced.outcomes[i].trace.spans)
		}
		if err := res.write(r.cfg.spansOut, w.name); err != nil {
			return err
		}
	}
	return nil
}

// aggregate folds the traced phase's jobs into metric values and fills the
// attribution table.
func (r *runResult) aggregate(traced, plain phase, nkinds int, workers float64) map[string]float64 {
	n := float64(len(traced.outcomes))
	v := make(map[string]float64, len(tracedDefs))
	rows := make(map[string]float64)
	var rowOrder []string
	row := func(name string, d time.Duration) {
		if _, seen := rows[name]; !seen {
			rowOrder = append(rowOrder, name)
		}
		rows[name] += d.Seconds()
	}

	var rootTotal, execWall, execCPU time.Duration
	var loads, hits int
	var topWrites, innerWritesUnderCache int64
	var admit, fetch, queue, run []float64
	tracedMS := make([][]float64, nkinds)
	for i := range traced.outcomes {
		o := &traced.outcomes[i]
		jt := o.trace
		tracedMS[o.kind] = append(tracedMS[o.kind], float64(o.wall)/1e6)
		r.jobsMS = append(r.jobsMS, float64(o.wall)/1e6)
		st := selfTimes(jt.spans)
		rootTotal += st["job"].Total

		probe, shard := split(&jt.totals[regionProbe]), split(&jt.totals[regionShard])
		exec := st["engine.execute"].Total
		clone, seg := st["engine.clone"].Total, st["workload.segment"].Total
		execWall += exec
		execCPU += jt.execCPU

		// Sequential part of the job: spans add up to wall time as they are.
		row("statestore.load", st["statestore.load"].Self)
		row("trace.open_scan", st["trace.open_scan"].Self)
		row("bench.probe_clone", st["bench.probe_clone"].Self)
		row("methodology.self", st["methodology.phases"].Total+st["methodology.pause"].Total-probe.outer)
		// Parallel part: `workers` goroutines share the engine.execute
		// span, so a layer's busy time counts for 1/workers of wall time.
		// What the workers' CPU time leaves unexplained is the executor,
		// pattern generation, statistics and the collector; what is left of
		// wall x workers after that is idle workers.
		busy := clone + seg + shard.outer
		capacity := time.Duration(float64(exec) * workers)
		other := max(0, min(jt.execCPU, capacity)-busy)
		idle := max(0, capacity-busy-other)
		par := func(d time.Duration) time.Duration { return time.Duration(float64(d) / workers) }
		row("engine.clone", par(clone))
		row("workload.segment", par(seg))
		row("faulty.self", probe.faulty+par(shard.faulty))
		row("composite.self", probe.composite+par(shard.composite))
		row("device.self", probe.device+par(shard.device))
		row("cache.self", probe.cache+par(shard.cache))
		row("ftl.inner", probe.inner+par(shard.inner))
		row("engine.other", par(other))
		row("engine.idle", par(idle))
		for _, name := range []string{"render.records", "render.csv", "render.json", "render.report", "server.admit", "server.events", "server.fetch"} {
			row(name, st[name].Self)
		}

		v["statestore.load_s"] += st["statestore.load"].Total.Seconds() / n
		v["methodology.phases_s"] += st["methodology.phases"].Total.Seconds() / n
		v["methodology.pause_s"] += st["methodology.pause"].Total.Seconds() / n
		v["engine.execute_s"] += exec.Seconds() / n
		v["engine.clone_s"] += clone.Seconds() / n
		v["engine.clones"] += float64(st["engine.clone"].Count)
		v["engine.other_cpu_s"] += max(0, jt.execCPU-clone-seg-shard.outer).Seconds() / n
		v["device.submit_s"] += (probe.outer + shard.outer).Seconds() / n
		v["device.self_s"] += (probe.device + shard.device).Seconds() / n
		v["composite.self_s"] += (probe.composite + shard.composite).Seconds() / n
		v["faulty.self_s"] += (probe.faulty + shard.faulty).Seconds() / n
		v["cache.self_s"] += (probe.cache + shard.cache).Seconds() / n
		v["ftl.inner_s"] += (probe.inner + shard.inner).Seconds() / n
		v["trace.open_scan_s"] += st["trace.open_scan"].Total.Seconds() / n
		v["workload.segment_s"] += seg.Seconds() / n
		v["workload.segments"] += float64(st["workload.segment"].Count)
		v["render.records_s"] += st["render.records"].Total.Seconds() / n
		v["render.csv_s"] += st["render.csv"].Total.Seconds() / n
		v["render.report_s"] += st["render.report"].Total.Seconds() / n
		v["render.json_s"] += st["render.json"].Total.Seconds() / n
		v["bench.sim_total_s"] += o.result.simTotal.Seconds()
		v["device.retries"] += float64(o.result.retries)

		for reg := range jt.totals {
			t := &jt.totals[reg]
			// Host IOs are those of the outermost device interposer.
			outer := &t[layerDevice]
			if t[layerFaulty].calls > 0 {
				outer = &t[layerFaulty]
			} else if t[layerComposite].calls > 0 {
				outer = &t[layerComposite]
			}
			v["device.ios"] += float64(outer.ios)
			v["device.batches"] += float64(outer.batches)
			top, inner := &t[layerCacheTop], &t[layerInner]
			v["cache.calls"] += float64(top.calls)
			v["ftl.calls"] += float64(inner.calls)
			v["ftl.page_programs"] += float64(inner.ops.PagePrograms)
			v["ftl.merge_programs"] += float64(inner.ops.MergePrograms)
			v["ftl.page_reads"] += float64(inner.ops.PageReads)
			v["ftl.merge_reads"] += float64(inner.ops.MergeReads)
			v["ftl.erases"] += float64(inner.ops.Erases)
			v["ftl.map_flushes"] += float64(inner.ops.MapFlushes + inner.ops.SeqMapFlushes)
			if top.calls > 0 {
				topWrites += top.writes
				innerWritesUnderCache += inner.writes
			}
		}
		loads, hits = loads+jt.loads, hits+jt.hits

		if s, ok := st["server.admit"]; ok {
			admit = append(admit, float64(s.Total)/1e6)
			fetch = append(fetch, float64(st["server.fetch"].Total)/1e6)
			queue = append(queue, float64(jt.queueWait)/1e6)
			run = append(run, float64(jt.daemonRun)/1e6)
			v["server.events_per_job"] += float64(jt.events) / n
			v["server.refused"] += float64(jt.refused)
		}
	}

	v["statestore.loads"] = float64(loads)
	if loads > 0 {
		v["statestore.hit_share"] = float64(hits) / float64(loads)
	}
	if execWall > 0 {
		v["engine.parallel_efficiency"] = execCPU.Seconds() / (execWall.Seconds() * workers)
	}
	if topWrites > 0 {
		v["cache.absorb_share"] = 1 - float64(innerWritesUnderCache)/float64(topWrites)
	}
	if host := v["ftl.page_programs"]; host > 0 {
		v["ftl.write_amp"] = (host + v["ftl.merge_programs"]) / host
	}
	v["server.admit_p50_ms"] = median(admit)
	v["server.admit_tail_ms"], _ = tail(admit)
	v["server.queue_wait_p50_ms"] = median(queue)
	v["server.run_p50_ms"] = median(run)
	v["server.fetch_p50_ms"] = median(fetch)

	// Tracing overhead, kind by kind so the mix of kinds cancels out.
	plainMS := make([][]float64, nkinds)
	for i := range plain.outcomes {
		o := &plain.outcomes[i]
		plainMS[o.kind] = append(plainMS[o.kind], float64(o.wall)/1e6)
	}
	var ratios []float64
	for k := range nkinds {
		if p := median(plainMS[k]); p > 0 {
			ratios = append(ratios, median(tracedMS[k])/p-1)
		}
	}
	v["bench.trace_overhead_ratio"] = median(ratios)
	v["bench.job_tail_ms"], r.tailPct = tail(r.jobsMS)

	var attributed float64
	for _, name := range rowOrder {
		if s := rows[name] / n; s > 0 {
			r.attribution = append(r.attribution, attrRow{name, s, rows[name] / rootTotal.Seconds()})
			attributed += rows[name]
		}
	}
	left := max(0, rootTotal.Seconds()-attributed)
	r.attribution = append(r.attribution, attrRow{"unattributed", left / n, left / rootTotal.Seconds()})
	v["bench.unattributed_share"] = left / rootTotal.Seconds()
	return v
}
