package main

import (
	"runtime"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/platforms"
)

// Per-layer numbers derived from spans or from re-timing a layer's public
// calls on the workload's own inputs after the measured window.

// executeLayers fills execute.* and runner.pool_util from the "execute"
// spans of units traced units (passes, sweeps or windows), whose walls sum to
// wall seconds with the given worker count; store is one unit's store.
// Counts and times are per unit.
func executeLayers(l map[string]float64, ix spanIndex, store *timedStore, units int, wall float64, workers int) {
	exec := ix.byName["execute"]
	per := 1 / float64(max(units, 1))
	busy := totalDur(exec) * per
	l["execute.cells"] = float64(len(exec)) * per
	l["execute.busy_s"] = busy
	for _, s := range exec {
		l["execute.bench."+s.Attrs["benchmark"]+"_s"] += s.Dur().Seconds() * per
		l["execute.api."+s.Attrs["api"]+"_s"] += s.Dur().Seconds() * per
	}
	// Σ Result.Dispatches of one unit's executed cells, read back by
	// replaying their snapshots on the registry platform.
	dispatches := 0
	keys, snaps := store.executedSnapshots()
	for i, k := range keys {
		if p := canonicalPlatform(k); p != nil {
			if res, err := snaps[i].Replay(p); err == nil {
				dispatches += res.Dispatches
			}
		}
	}
	l["execute.dispatches"] = float64(dispatches)
	if dispatches > 0 {
		l["execute.ms_per_dispatch"] = busy * 1000 / float64(dispatches)
	}
	if wall > 0 {
		l["runner.pool_util"] = busy * float64(units) / (wall * float64(workers))
	}
}

// storeLayers fills the span-derived store.* metrics (per unit).
func storeLayers(l map[string]float64, ix spanIndex, units int) {
	gets, puts := ix.byName["store.get"], ix.byName["store.put"]
	per := 1 / float64(max(units, 1))
	hits := 0
	for _, s := range gets {
		if s.Attrs["hit"] == "true" {
			hits++
		}
	}
	l["store.gets"] = float64(len(gets)) * per
	if len(gets) > 0 {
		l["store.hit_ratio"] = float64(hits) / float64(len(gets))
	}
	l["store.get_us_p50"] = median(durs(gets, time.Microsecond))
	l["store.get_us_p99"], _ = tail(durs(gets, time.Microsecond), 0.99)
	l["store.puts"] = float64(len(puts)) * per
	l["store.put_us_p50"] = median(durs(puts, time.Microsecond))
}

// tierLayers fills store.mem_hits/disk_hits/disk_bytes from a store's
// per-tier statistics, averaged over the units that produced them. A plain
// in-memory cache has no tiers; all its hits are memory hits.
func tierLayers(l map[string]float64, stats []core.CacheStats) {
	per := 1 / float64(max(len(stats), 1))
	for _, st := range stats {
		if len(st.Tiers) == 0 {
			l["store.mem_hits"] += float64(st.Hits) * per
			continue
		}
		for _, t := range st.Tiers {
			switch t.Tier {
			case "memory":
				l["store.mem_hits"] += float64(t.Hits) * per
			case "disk":
				l["store.disk_hits"] += float64(t.Hits) * per
				l["store.disk_bytes"] += float64(t.Bytes) * per
			}
		}
	}
}

// diskGetLayer re-times DiskStore.Get on a fresh instance over dir for keys.
func diskGetLayer(l map[string]float64, dir, codeVersion string, keys []core.SnapshotKey) error {
	disk, err := core.OpenDiskStore(dir, codeVersion, nil)
	if err != nil {
		return err
	}
	var us []float64
	for _, k := range keys {
		start := time.Now()
		_, ok := disk.Get(k)
		d := time.Since(start)
		if ok {
			us = append(us, float64(d)/float64(time.Microsecond))
		}
	}
	l["store.disk_get_us_p50"] = median(us)
	return nil
}

// snapshotLayers re-times the codec, replay, fingerprint and platform lookup
// layers on the workload's snapshots.
func snapshotLayers(l map[string]float64, keys []core.SnapshotKey, snaps []*core.Snapshot) {
	const reps = 3
	var enc, dec, size, replay []float64
	for _, s := range snaps {
		var blob []byte
		var e, d []float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			b, err := core.EncodeSnapshot(s)
			e = append(e, sinceUS(start))
			if err != nil {
				break
			}
			blob = b
			start = time.Now()
			_, err = core.DecodeSnapshot(b, nil)
			d = append(d, sinceUS(start))
			if err != nil {
				break
			}
		}
		if blob != nil {
			enc = append(enc, median(e))
			dec = append(dec, median(d))
			size = append(size, float64(len(blob)))
		}
	}
	l["codec.encode_us_p50"] = median(enc)
	l["codec.decode_us_p50"] = median(dec)
	l["codec.bytes_p50"] = median(size)

	var ms0, ms1 runtime.MemStats
	calls := 0
	runtime.ReadMemStats(&ms0)
	ids := map[string]*platforms.Platform{}
	for i, k := range keys {
		p := canonicalPlatform(k)
		if p == nil {
			continue
		}
		ids[p.ID] = p
		for j := 0; j < reps; j++ {
			start := time.Now()
			_, err := snaps[i].Replay(p)
			replay = append(replay, sinceUS(start))
			if err != nil {
				break
			}
			calls++
		}
	}
	runtime.ReadMemStats(&ms1)
	l["replay.us_p50"] = median(replay)
	l["replay.us_p99"], _ = tail(replay, 0.99)
	if calls > 0 {
		l["replay.allocs_per_call"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
	}
	platformLayers(l, ids)
}

// platformLayers times hw.Profile.ExecutionFingerprint and platforms.ByID on
// the workload's platforms (mean per call).
func platformLayers(l map[string]float64, ps map[string]*platforms.Platform) {
	const n = 200
	if len(ps) == 0 {
		return
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		for _, p := range ps {
			fingerprintSink = p.Profile.ExecutionFingerprint()
		}
	}
	l["hw.fingerprint_us"] = sinceUS(start) / float64(n*len(ps))
	start = time.Now()
	for i := 0; i < n; i++ {
		for id := range ps {
			platformSink, _ = platforms.ByID(id)
		}
	}
	l["platforms.by_id_us"] = sinceUS(start) / float64(n*len(ps))
}

// canonicalPlatform is the registry platform a snapshot key was recorded on,
// or nil when the key's platform is not in the registry (an ablation's
// modified copy) or its structure differs.
func canonicalPlatform(k core.SnapshotKey) *platforms.Platform {
	p, err := platforms.ByID(k.Platform)
	if err != nil || p.Profile.ExecutionFingerprint() != k.Fingerprint {
		return nil
	}
	return p
}

// Sinks keep timed calls whose results are unused from being optimised away.
var (
	fingerprintSink string
	platformSink    *platforms.Platform
)

func sinceUS(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }
