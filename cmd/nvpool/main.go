// Command nvpool inspects persistent memory pools stored in a directory:
// it lists pools, dumps allocator state, verifies that every pointer word
// reachable from a pool's root is in relocatable (relative) form, checks
// (optionally repairing) the allocator's crash-consistency invariants, and
// scrubs stored images against their page CRCs and parity sidecars —
// reconstructing corrupt pages in place when -repair is given.
//
// Usage:
//
//	nvpool -dir pools list
//	nvpool -dir pools info <name>
//	nvpool -dir pools verify <name>
//	nvpool -dir pools [-repair] fsck <name>
//	nvpool -dir pools [-repair] [-json] scrub [name]
//	nvpool -dir pools [-json] stats [name]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"nvref/internal/mem"
	"nvref/internal/obs"
	"nvref/internal/parity"
	"nvref/internal/pmem"
	"nvref/internal/repl"
)

func main() {
	dir := flag.String("dir", "pools", "pool store directory")
	repair := flag.Bool("repair", false, "fsck/scrub: repair crash residue or media corruption and write the result back")
	jsonOut := flag.Bool("json", false, "stats/scrub: emit JSON instead of text")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}

	store, err := pmem.NewDirStore(*dir)
	if err != nil {
		fail(err)
	}

	switch flag.Arg(0) {
	case "list":
		names, err := store.List()
		if err != nil {
			fail(err)
		}
		if len(names) == 0 {
			fmt.Println("no pools")
			return
		}
		for _, n := range names {
			meta, data, err := store.Load(n)
			if err != nil {
				fmt.Printf("%-20s (unreadable: %v)\n", n, err)
				continue
			}
			if pool, ok := parity.PoolName(n); ok {
				fmt.Printf("%-20s parity sidecar for %s (%d bytes)\n", n, pool, len(data))
				continue
			}
			fmt.Printf("%-20s id=%d size=%d bytes (%d on disk)\n", n, meta.ID, meta.Size, len(data))
		}

	case "info":
		requireName()
		reg, pool := open(store, flag.Arg(1))
		fmt.Printf("name:        %s\n", pool.Name())
		fmt.Printf("id:          %d\n", pool.ID())
		fmt.Printf("size:        %d bytes\n", pool.Size())
		fmt.Printf("mapped at:   %#x (this run)\n", pool.Base())
		fmt.Printf("allocations: %d live, %d bytes in use\n", pool.AllocCount(), pool.BytesInUse())
		fmt.Printf("root:        %s\n", pool.Root())
		free := pool.FreeBlocks()
		fmt.Printf("free:        %d bytes (fragmentation %.1f%%)\n",
			pool.FreeBytes(), 100*pool.Fragmentation())
		fmt.Printf("free blocks: %d\n", len(free))
		for _, fb := range free {
			fmt.Printf("  offset %#x, %d bytes\n", fb[0], fb[1])
		}
		_ = reg

	case "verify":
		requireName()
		reg, pool := open(store, flag.Arg(1))
		bad := pmem.VerifyRelocatable(pool, reg.AddressSpace())
		if len(bad) == 0 {
			fmt.Println("ok: every pointer word in the pool heap is relocatable")
		} else {
			fmt.Printf("FAIL: %d pointer-like words are raw virtual addresses\n", len(bad))
			for i, off := range bad {
				if i >= 10 {
					fmt.Printf("  ... and %d more\n", len(bad)-10)
					break
				}
				fmt.Printf("  offset %#x\n", off)
			}
			os.Exit(1)
		}

	case "fsck":
		requireName()
		mediaCheck(store, flag.Arg(1), *repair)
		reg, pool := open(store, flag.Arg(1))
		fsck(reg, pool, *repair)

	case "scrub":
		scrub(store, flag.Arg(1), *repair, *jsonOut)

	case "stats":
		if err := stats(store, *dir, flag.Arg(1), *jsonOut); err != nil {
			fail(err)
		}

	default:
		usage()
	}
}

// stats opens the named pool (or every stored pool when name is empty),
// runs one fsck scan and one verify-only media scrub so finding counters
// (including the parity/scrub gauges) are populated, and emits every
// registered series as Prometheus text or a JSON snapshot.
func stats(store pmem.Store, dir, name string, jsonOut bool) error {
	names := []string{name}
	if name == "" {
		var err error
		names, err = store.List()
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return fmt.Errorf("no pools in store")
		}
	}
	reg := newRegistry(store)
	metrics := obs.NewRegistry()
	reg.RegisterMetrics(metrics)
	for _, n := range names {
		if parity.IsSidecar(n) {
			continue // verified as part of its pool's media pass
		}
		pool, err := reg.Open(n)
		if err != nil {
			return err
		}
		pmem.RegisterPoolMetrics(metrics, pool)
		pmem.Fsck(pool)
		// Verify-only media pass: populates scrub/parity counters without
		// touching the store.
		if _, err := reg.ScrubMedia(n, false); err != nil {
			return err
		}
	}
	registerOplogStats(metrics, dir)
	if jsonOut {
		return metrics.Snapshot().WriteJSON(os.Stdout)
	}
	return obs.WritePrometheus(os.Stdout, metrics.Snapshot())
}

// registerOplogStats surfaces replication op-log images, if the inspected
// shard directory has an oplog/ subdirectory (the layout nvserved's
// replication roles write). Each log contributes its retained size,
// sequence window, and damage counters to the stats document.
func registerOplogStats(metrics *obs.Registry, dir string) {
	oplogDir := filepath.Join(dir, "oplog")
	if fi, err := os.Stat(oplogDir); err != nil || !fi.IsDir() {
		return
	}
	store, err := pmem.NewDirStore(oplogDir)
	if err != nil {
		return
	}
	images, err := store.List()
	if err != nil {
		return
	}
	// A log is several images (its tail plus sealed segments); report it once.
	for _, n := range repl.LogNames(images) {
		// Read-only: the directory may belong to a live server.
		st, err := repl.InspectLog(store, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvpool: oplog %s: %v\n", n, err)
			continue
		}
		pfx := "oplog_" + n + "_"
		metrics.GaugeFunc(pfx+"records", "retained operation-log records", func() int64 { return int64(st.Records) })
		metrics.GaugeFunc(pfx+"bytes", "retained operation-log bytes", func() int64 { return int64(st.Bytes) })
		metrics.GaugeFunc(pfx+"last_seq", "newest logged sequence number", func() int64 { return int64(st.LastSeq) })
		metrics.GaugeFunc(pfx+"base_seq", "oldest retained sequence number", func() int64 { return int64(st.BaseSeq) })
		metrics.GaugeFunc(pfx+"flushed_seq", "newest sequence the durable image covers", func() int64 { return int64(st.FlushedSeq) })
		metrics.GaugeFunc(pfx+"torn_records", "records dropped at reload for CRC or sequence damage", func() int64 { return int64(st.TornRecords) })
		metrics.GaugeFunc(pfx+"segments", "images the log occupies in the store: sealed segments plus the tail", func() int64 { return int64(st.Segments) })
		metrics.GaugeFunc(pfx+"flushes", "image flushes performed over the log's lifetime", func() int64 { return int64(st.Flushes) })
		metrics.GaugeFunc(pfx+"flush_bytes_total", "image bytes handed to the store over the log's lifetime", func() int64 { return int64(st.FlushBytes) })
		metrics.GaugeFunc(pfx+"flush_errors", "image flushes that failed", func() int64 { return int64(st.FlushErrors) })
		metrics.GaugeFunc(pfx+"truncated", "records dropped by checkpoint truncation", func() int64 { return int64(st.Truncated) })
	}
}

// fsck checks (and with repair, fixes) the pool's allocator structures and
// relocatability. Exit status: 0 clean, 1 corrupt or unrepaired residue.
func fsck(reg *pmem.Registry, pool *pmem.Pool, repair bool) {
	rep := pmem.Fsck(pool)
	printFsck(rep)
	if !rep.Consistent() {
		fmt.Println("FAIL: structural corruption; repair refused")
		os.Exit(1)
	}
	if bad := pmem.VerifyRelocatable(pool, reg.AddressSpace()); len(bad) > 0 {
		fmt.Printf("warn: %d pointer-like words are raw virtual addresses (see verify)\n", len(bad))
	}
	if rep.Clean() {
		fmt.Println("ok: pool is clean")
		return
	}
	if !repair {
		fmt.Println("crash residue present; rerun with -repair to reclaim it")
		os.Exit(1)
	}
	after, err := pmem.Repair(pool)
	if err != nil {
		fail(err)
	}
	if err := reg.Checkpoint(pool); err != nil {
		fail(err)
	}
	fmt.Printf("repaired: %d live blocks, %d free bytes; pool checkpointed\n",
		after.LiveBlocks, after.FreeBytes)
}

func printFsck(rep *pmem.FsckReport) {
	fmt.Printf("blocks:  %d live (%d bytes), %d free (%d bytes), %d leaked (%d bytes)\n",
		rep.LiveBlocks, rep.LiveBytes, rep.FreeBlocks, rep.FreeBytes,
		rep.LeakedBlocks, rep.LeakedBytes)
	fmt.Printf("stats:   header claims %d allocations, %d bytes in use\n",
		rep.StatsAllocCount, rep.StatsBytesInUse)
	for _, issue := range rep.Issues {
		fmt.Println(" ", issue)
	}
}

// newRegistry builds the tool's pool registry. Parity is always armed:
// reads repair corrupt images from their sidecars, and a checkpoint
// written by fsck -repair keeps the sidecar current instead of letting it
// go stale.
func newRegistry(store pmem.Store) *pmem.Registry {
	return pmem.NewRegistry(mem.New(), store, pmem.WithParity(parity.Default()))
}

func open(store pmem.Store, name string) (*pmem.Registry, *pmem.Pool) {
	reg := newRegistry(store)
	pool, err := reg.Open(name)
	if err != nil {
		fail(err)
	}
	return reg, pool
}

// mediaCheck is fsck's media pre-pass: the stored image is verified
// against its page CRCs before the allocator-level checks run. Damage is
// reconstructed from the parity sidecar with -repair (and the healed
// image saved back); without -repair it is reported and the run stops —
// structural fsck on a corrupt image would chase garbage.
func mediaCheck(store pmem.Store, name string, repair bool) {
	reg := newRegistry(store)
	rep, err := reg.ScrubMedia(name, repair)
	if err != nil {
		// No stored image to scrub (e.g. the pool was never checkpointed):
		// nothing for the media layer to say; let Open decide.
		return
	}
	if rep.ImageOK {
		return
	}
	printMedia(rep)
	switch {
	case len(rep.Unrecoverable) > 0:
		fmt.Println("FAIL: damage beyond parity's reach; restore the pool from a replica or backup")
		os.Exit(1)
	case rep.Err != "":
		fmt.Println("FAIL:", rep.Err)
		os.Exit(1)
	case !repair:
		fmt.Println("media corruption present; rerun with -repair to reconstruct from parity")
		os.Exit(1)
	}
}

// scrub verifies (and with repair, heals) the stored image of one pool —
// or of every pool in the store when name is empty — against page CRCs
// and parity sidecars. Exit status: 0 when every image ended the pass
// consistent, 1 otherwise.
func scrub(store pmem.Store, name string, repair, jsonOut bool) {
	reg := newRegistry(store)
	var reports []*pmem.MediaReport
	if name == "" {
		var err error
		reports, err = reg.ScrubAllMedia(repair)
		if err != nil {
			fail(err)
		}
		if len(reports) == 0 {
			fmt.Println("no pools")
			return
		}
	} else {
		rep, err := reg.ScrubMedia(name, repair)
		if err != nil {
			fail(err)
		}
		reports = []*pmem.MediaReport{rep}
	}
	bad := 0
	for _, rep := range reports {
		ok := rep.Recovered() && (rep.ImageOK || repair)
		if !ok {
			bad++
		}
		if !jsonOut {
			printMedia(rep)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fail(err)
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// printMedia renders one media report as text, one pool per stanza.
func printMedia(rep *pmem.MediaReport) {
	switch {
	case rep.ImageOK:
		fmt.Printf("%s: image ok, sidecar %s", rep.Pool, rep.Sidecar)
		if rep.SidecarBuilt {
			fmt.Printf(" (rebuilt)")
		}
		if rep.ParityPages > 0 {
			fmt.Printf(", %d parity page(s)", rep.ParityPages)
		}
		fmt.Println()
	case len(rep.Unrecoverable) > 0:
		fmt.Printf("%s: %d corrupt page(s) %v, %d rangelet(s) beyond parity's reach:\n",
			rep.Pool, len(rep.BadPages), rep.BadPages, len(rep.Unrecoverable))
		for _, ov := range rep.Unrecoverable {
			fmt.Printf("  %s\n", ov)
		}
	case rep.Healed:
		fmt.Printf("%s: %d corrupt page(s) %v reconstructed from parity; image healed in place\n",
			rep.Pool, len(rep.Repaired), rep.Repaired)
	case rep.Err != "":
		fmt.Printf("%s: FAIL: %s\n", rep.Pool, rep.Err)
	default:
		fmt.Printf("%s: %d corrupt page(s) %v, repairable from parity (rerun with -repair)\n",
			rep.Pool, len(rep.BadPages), rep.BadPages)
	}
}

func requireName() {
	if flag.NArg() < 2 {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nvpool [-dir d] [-repair] [-json] list | info <name> | verify <name> | fsck <name> | scrub [name] | stats [name]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nvpool:", err)
	os.Exit(1)
}
