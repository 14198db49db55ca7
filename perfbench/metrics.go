package main

import (
	"runtime"
	"sort"
)

// Metric names and units; BENCHMARK.json lists the same ones
// (TestBenchmarkJSONMatches keeps them in step).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"qor_delay_ps", "ps"},
	{"qor_area_um2", "um2"},
}

var perLayer = []struct{ name, unit string }{
	{"transform.move_s", "s"},
	{"anneal.evals", "count"},
	{"anneal.spec_evals", "count"},
	{"anneal.spec_ratio", "ratio"},
	{"anneal.autotune_s", "s"},
	{"eval.cache_hits", "count"},
	{"eval.cache_misses", "count"},
	{"eval.hit_ratio", "ratio"},
	{"eval.full_evals", "count"},
	{"eval.delta_evals", "count"},
	{"eval.delta_share", "ratio"},
	{"signoff.full_calls", "count"},
	{"signoff.full_s", "s"},
	{"signoff.full_p50_ms", "ms"},
	{"signoff.full_p90_ms", "ms"},
	{"signoff.delta_calls", "count"},
	{"signoff.delta_s", "s"},
	{"signoff.delta_p50_ms", "ms"},
	{"signoff.delta_declined", "count"},
	{"signoff.batch_calls", "count"},
	{"signoff.batch_size_mean", "count"},
	{"gbdt.infer_graphs", "count"},
	{"gbdt.infer_s", "s"},
	{"gbdt.infer_p50_us", "us"},
	{"dataset.label_s", "s"},
	{"dataset.samples", "count"},
	{"gbdt.train_s", "s"},
	{"gbdt.trees", "count"},
	{"flows.points", "count"},
	{"flows.core_util", "ratio"},
	{"flows.hub_counter_diffs", "count"},
	{"shard.bytes_sent", "B"},
	{"shard.bytes_received", "B"},
	{"shard.base_bytes", "B"},
	{"shard.delta_bytes", "B"},
	{"shard.seed_bytes", "B"},
	{"shard.job_sends", "count"},
	{"shard.requeues", "count"},
	{"shard.handoffs", "count"},
	{"shard.cache_duplicates", "count"},
	{"shard.prefilter_hits", "count"},
	{"shard.worker_busy_s", "s"},
	{"shard.queue_wait_s", "s"},
	{"shard.turnaround_gt_s", "s"},
	{"shard.turnaround_proxy_s", "s"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_s", "s"},
	{"trace.full_evals", "count"},
	{"trace.delta_evals", "count"},
	{"trace.spans", "count"},
}

// median returns the median of xs (0 for none).
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

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// repMedian is the median over the untraced repetitions of f.
func repMedian(rec *record, f func(r repRecord) float64) float64 {
	xs := make([]float64, len(rec.Reps))
	for i, r := range rec.Reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func withUnits(values map[string]float64, table []struct{ name, unit string }) map[string]metric {
	out := make(map[string]metric, len(table))
	for _, m := range table {
		out[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return out
}

// endToEndMetrics are the medians of the timed repetitions and of the
// set-ups, and the mean ground-truth QoR over every grid point of the
// first qorSubSeeds sub-seeds (each deterministic, as the checker
// verifies).
func endToEndMetrics(rec *record, chk *checker) map[string]metric {
	return withUnits(map[string]float64{
		"setup_s":      median(rec.SetupS),
		"wall_s":       repMedian(rec, func(r repRecord) float64 { return r.WallS }),
		"cpu_s":        repMedian(rec, func(r repRecord) float64 { return r.CPUS }),
		"peak_rss_mb":  repMedian(rec, func(r repRecord) float64 { return r.PeakRSSMB }),
		"qor_delay_ps": ratio(chk.qorDelay, float64(chk.qorPoints)),
		"qor_area_um2": ratio(chk.qorArea, float64(chk.qorPoints)),
	}, endToEnd)
}

// layerMetrics are the traced run's numbers: the untraced repetitions'
// work counts (medians), the set-ups' layer timings, and the traced
// repetition's spans. A layer that does not run in the workload reads 0.
func layerMetrics(rec *record, sts []setupStats, spans []span) map[string]metric {
	med := func(f func(r repRecord) float64) float64 { return repMedian(rec, f) }
	v := map[string]float64{
		"transform.move_s":  med(func(r repRecord) float64 { return r.MoveS }),
		"anneal.evals":      med(func(r repRecord) float64 { return float64(r.Evals) }),
		"anneal.spec_evals": med(func(r repRecord) float64 { return float64(r.SpecEvals) }),
		"anneal.spec_ratio": med(func(r repRecord) float64 { return ratio(float64(r.SpecEvals), float64(r.Evals)) }),
		"eval.cache_hits":   med(func(r repRecord) float64 { return float64(r.CacheHits) }),
		"eval.cache_misses": med(func(r repRecord) float64 { return float64(r.CacheMisses) }),
		"eval.hit_ratio": med(func(r repRecord) float64 {
			return ratio(float64(r.CacheHits), float64(r.CacheHits+r.CacheMisses))
		}),
		"eval.full_evals":  med(func(r repRecord) float64 { return float64(r.FullEvals) }),
		"eval.delta_evals": med(func(r repRecord) float64 { return float64(r.DeltaEvals) }),
		"eval.delta_share": med(func(r repRecord) float64 {
			return ratio(float64(r.DeltaEvals), float64(r.FullEvals+r.DeltaEvals))
		}),
		"flows.points": med(func(r repRecord) float64 { return float64(r.Points) }),
		"flows.core_util": med(func(r repRecord) float64 {
			return ratio(r.CPUS, r.WallS*float64(runtime.GOMAXPROCS(0)))
		}),
		"runtime.alloc_mb":  med(func(r repRecord) float64 { return r.AllocMB }),
		"runtime.mallocs":   med(func(r repRecord) float64 { return float64(r.Mallocs) }),
		"runtime.gc_cycles": med(func(r repRecord) float64 { return float64(r.GCCycles) }),
	}

	var label, train []float64
	for _, st := range sts {
		label = append(label, st.labelS)
		train = append(train, st.trainS)
	}
	v["dataset.label_s"] = median(label)
	v["gbdt.train_s"] = median(train)
	v["dataset.samples"] = float64(sts[0].samples)
	v["gbdt.trees"] = float64(sts[0].trees)

	if len(rec.Reps) > 0 && len(rec.Reps[0].Shard) > 0 {
		shardMed := func(f func(s shardRecord) float64) float64 {
			return med(func(r repRecord) float64 {
				var t float64
				for _, s := range r.Shard {
					t += f(s)
				}
				return t
			})
		}
		v["shard.bytes_sent"] = shardMed(func(s shardRecord) float64 { return float64(s.BytesSent) })
		v["shard.bytes_received"] = shardMed(func(s shardRecord) float64 { return float64(s.BytesReceived) })
		v["shard.base_bytes"] = shardMed(func(s shardRecord) float64 { return float64(s.BaseBytes) })
		v["shard.delta_bytes"] = shardMed(func(s shardRecord) float64 { return float64(s.DeltaBytes) })
		v["shard.seed_bytes"] = shardMed(func(s shardRecord) float64 { return float64(s.SeedBytes) })
		v["shard.job_sends"] = shardMed(func(s shardRecord) float64 { return float64(s.JobSends) })
		v["shard.requeues"] = shardMed(func(s shardRecord) float64 { return float64(s.Requeues) })
		v["shard.handoffs"] = shardMed(func(s shardRecord) float64 { return float64(s.Handoffs) })
		v["shard.cache_duplicates"] = shardMed(func(s shardRecord) float64 { return float64(s.CacheDuplicates) })
		v["shard.prefilter_hits"] = shardMed(func(s shardRecord) float64 { return float64(s.PrefilterHits) })
		v["shard.turnaround_gt_s"] = med(func(r repRecord) float64 { return r.TurnaroundS[0] })
		v["shard.turnaround_proxy_s"] = med(func(r repRecord) float64 { return r.TurnaroundS[1] })
	}

	full := aggregate(spans, spanSignoffFull)
	delta := aggregate(spans, spanSignoffDelta, spanSignoffDeclined)
	batch := aggregate(spans, spanSignoffBatch)
	infer := aggregate(spans, spanInfer)
	runs := aggregate(spans, spanShardRun)
	tune := aggregate(spans, spanAutoTune)
	v["signoff.full_calls"] = float64(full.calls)
	v["signoff.full_s"] = full.total
	v["signoff.full_p50_ms"] = percentile(full.durs, 50) * 1e3
	v["signoff.full_p90_ms"] = percentile(full.durs, 90) * 1e3
	v["signoff.delta_calls"] = float64(delta.calls)
	v["signoff.delta_s"] = delta.total
	v["signoff.delta_p50_ms"] = percentile(delta.durs, 50) * 1e3
	v["signoff.delta_declined"] = float64(aggregate(spans, spanSignoffDeclined).calls)
	v["signoff.batch_calls"] = float64(batch.calls)
	v["signoff.batch_size_mean"] = ratio(float64(batch.graphs), float64(batch.calls))
	v["gbdt.infer_graphs"] = float64(infer.graphs)
	v["gbdt.infer_s"] = infer.total
	v["gbdt.infer_p50_us"] = percentile(infer.durs, 50) * 1e6
	v["shard.worker_busy_s"] = runs.total
	v["shard.queue_wait_s"] = queueWait(spans)
	v["anneal.autotune_s"] = tune.total
	v["trace.overhead_s"] = rec.Traced.WallS - rec.Repeat.WallS
	v["trace.full_evals"] = float64(rec.Traced.FullEvals)
	v["trace.delta_evals"] = float64(rec.Traced.DeltaEvals)
	v["trace.spans"] = float64(len(spans))
	v["flows.hub_counter_diffs"] = float64(len(rec.HubCounterDiffs))
	return withUnits(v, perLayer)
}

// queueWait sums, over hub submissions, the time from the submit call
// (which includes the client-side AutoTune pilot) to the first grid
// point of the submission starting on a worker.
func queueWait(spans []span) float64 {
	first := map[int]int64{}
	for _, s := range spans {
		if s.Name != spanShardRun || s.Parent < 0 {
			continue
		}
		if t, ok := first[s.Parent]; !ok || s.Start < t {
			first[s.Parent] = s.Start
		}
	}
	var total float64
	for parent, t := range first {
		total += float64(t-spans[parent].Start) / 1e9
	}
	return total
}
