package pmem

import "nvref/internal/obs"

// RegisterMetrics binds the registry's lifecycle counters and the live pool
// inventory into reg as collector series. Pool-level gauges aggregate over
// the attached pools only: a detached pool has no mapped header to read.
func (r *Registry) RegisterMetrics(reg *obs.Registry) {
	ctr := func(name, help string, fn func() uint64) { reg.CounterFunc(name, help, fn) }

	ctr("pmem_pool_creates_total", "pools created", func() uint64 { return r.Stats.Creates })
	ctr("pmem_pool_opens_total", "pools opened from the store", func() uint64 { return r.Stats.Opens })
	ctr("pmem_checkpoints_total", "pool images checkpointed", func() uint64 { return r.Stats.Checkpoints })
	ctr("pmem_detaches_total", "pools detached", func() uint64 { return r.Stats.Detaches })
	ctr("pmem_attaches_total", "pools (re)attached", func() uint64 { return r.Stats.Attaches })
	ctr("pmem_store_retries_total", "extra attempts after transient store faults", func() uint64 { return r.Stats.StoreRetries })
	ctr("pmem_bytes_saved_total", "image bytes checkpointed", func() uint64 { return r.Stats.BytesSaved })
	ctr("pmem_bytes_loaded_total", "image bytes restored", func() uint64 { return r.Stats.BytesLoaded })
	ctr("pmem_checkpoint_dirty_pages_total", "pages checkpoints found changed and checksummed", func() uint64 { return r.Stats.DirtyPages })
	ctr("pmem_fsck_runs_total", "fsck scans executed", func() uint64 { return r.Stats.FsckRuns })
	ctr("pmem_fsck_errors_total", "fsck structural-corruption findings", func() uint64 { return r.Stats.FsckErrors })
	ctr("pmem_fsck_warns_total", "fsck repairable-residue findings", func() uint64 { return r.Stats.FsckWarns })
	ctr("pmem_repairs_total", "repair passes that reclaimed crash residue", func() uint64 { return r.Stats.Repairs })
	ctr("pmem_parity_builds_total", "full parity sidecar builds", func() uint64 { return r.Stats.ParityBuilds })
	ctr("pmem_parity_updates_total", "incremental parity delta updates", func() uint64 { return r.Stats.ParityUpdates })
	ctr("pmem_parity_page_writes_total", "parity pages rewritten by delta updates", func() uint64 { return r.Stats.ParityPageWrites })
	ctr("pmem_media_scrubs_total", "media scrub passes", func() uint64 { return r.Stats.MediaScrubs })
	ctr("pmem_media_bad_pages_total", "data pages found failing their CRC", func() uint64 { return r.Stats.MediaBadPages })
	ctr("pmem_pages_repaired_total", "data pages reconstructed from parity", func() uint64 { return r.Stats.PagesRepaired })
	ctr("pmem_parity_rebuilds_total", "parity sidecars rebuilt", func() uint64 { return r.Stats.ParityRebuilds })
	ctr("pmem_media_unrecoverable_total", "rangelets with damage beyond parity's reach", func() uint64 { return r.Stats.MediaUnrecoverable })

	reg.GaugeFunc("pmem_parity_pages", "parity pages currently maintained", func() int64 {
		return int64(r.Stats.ParityPages)
	})

	reg.GaugeFunc("pmem_pools_attached", "pools currently mapped", func() int64 {
		return int64(len(r.attached))
	})
	reg.GaugeFunc("pmem_allocs_live", "live allocations across attached pools", func() int64 {
		var n uint64
		for _, p := range r.attached {
			n += p.AllocCount()
		}
		return int64(n)
	})
	reg.GaugeFunc("pmem_bytes_in_use", "bytes held by live allocations across attached pools", func() int64 {
		var n uint64
		for _, p := range r.attached {
			n += p.BytesInUse()
		}
		return int64(n)
	})
	reg.GaugeFunc("pmem_bytes_free", "free-list plus never-used bytes across attached pools", func() int64 {
		var n uint64
		for _, p := range r.attached {
			n += p.FreeBytes()
		}
		return int64(n)
	})
}

// RegisterPoolMetrics exports one gauge set for a single named pool, for
// tools (nvpool stats) that inspect pools individually.
func RegisterPoolMetrics(reg *obs.Registry, p *Pool) {
	prefix := "pmem_pool_" + obs.SanitizeName(p.Name()) + "_"
	reg.GaugeFunc(prefix+"size_bytes", "pool size", func() int64 { return int64(p.Size()) })
	reg.GaugeFunc(prefix+"allocs_live", "live allocations", func() int64 {
		if !p.Attached() {
			return 0
		}
		return int64(p.AllocCount())
	})
	reg.GaugeFunc(prefix+"bytes_in_use", "bytes held by live allocations", func() int64 {
		if !p.Attached() {
			return 0
		}
		return int64(p.BytesInUse())
	})
	reg.GaugeFunc(prefix+"bytes_free", "free-list plus never-used bytes", func() int64 {
		if !p.Attached() {
			return 0
		}
		return int64(p.FreeBytes())
	})
	reg.GaugeFunc(prefix+"attached", "1 when the pool is mapped", func() int64 {
		if p.Attached() {
			return 1
		}
		return 0
	})
}
