// Media-fault tolerance: the registry side of the parity layer.
//
// Every checkpoint maintains a self-checksummed parity sidecar (per-page
// CRC32s + one XOR parity page per rangelet, see internal/parity) stored
// next to the pool image under parity.SidecarName. Every read of a stored
// image is one walk (walk): Open takes it with repair set when parity is
// armed, so a corrupt image is repaired in place from the sidecar on the
// load path; ScrubMedia takes it on demand — the background scrubber's and
// nvpool's entry point — verifying, repairing, and re-sealing as needed.
//
// Ordering and staleness: the data image is saved first, the sidecar
// second, with a crash point between them. A crash in that window leaves
// a sidecar describing the previous image; its recorded image checksum no
// longer matches, so it is detected as stale and never used for repair —
// the next checkpoint or scrub pass rebuilds it.
package pmem

import (
	"errors"
	"fmt"

	"nvref/internal/parity"
)

// ErrNoParity reports a corrupt image that cannot be repaired because no
// usable parity sidecar exists (parity disabled, sidecar missing or
// damaged, or sidecar stale from a crash mid-checkpoint).
var ErrNoParity = errors.New("pmem: no usable parity sidecar")

// SidecarState classifies the parity sidecar found (or not) for a pool.
type SidecarState string

const (
	SidecarOK      SidecarState = "ok"      // present, intact, describes the image
	SidecarMissing SidecarState = "missing" // never written (or deleted)
	SidecarStale   SidecarState = "stale"   // describes an older image (crash window)
	SidecarCorrupt SidecarState = "corrupt" // blob fails its own checksum
)

// MediaReport is the outcome of one walk over a stored pool image.
type MediaReport struct {
	Pool          string           `json:"pool"`
	ImageOK       bool             `json:"image_ok"`        // image verified clean on entry
	Sidecar       SidecarState     `json:"sidecar"`         // state found on entry
	SidecarBuilt  bool             `json:"sidecar_built"`   // sidecar (re)built this pass
	BadPages      []int            `json:"bad_pages"`       // every data page failing its CRC
	Repaired      []int            `json:"repaired"`        // pages reconstructed from parity
	ParityRebuilt []int            `json:"parity_rebuilt"`  // parity pages recomputed
	Unrecoverable []parity.Overlap `json:"unrecoverable"`   // rangelets beyond repair
	Healed        bool             `json:"healed"`          // repaired image saved back to the store
	ParityPages   int              `json:"parity_pages"`    // parity pages maintained for this pool
	Err           string           `json:"error,omitempty"` // terminal failure, empty on success
}

// Recovered reports whether the pass ended with a consistent image.
func (m *MediaReport) Recovered() bool {
	return m != nil && m.Err == "" && len(m.Unrecoverable) == 0
}

// nextSidecar returns the sidecar describing img, a checkpoint's image:
// sc, the sidecar describing old (the image img was patched from), folded
// forward by the dirty pages when it has the same page size, else a full
// build. sc is folded in place. Builds and delta updates count into st.
func (r *Registry) nextSidecar(st *RegistryStats, sc *parity.Sidecar, old []byte, img *image, dirty []int) *parity.Sidecar {
	if sc == nil || sc.PageSize != r.pageSize {
		st.ParityBuilds++
		return parity.Build(img.data, r.parity)
	}
	if fs := sc.Fold(old, img.data, dirty, img.sum); fs.Rebuilt {
		st.ParityBuilds++
	} else {
		st.ParityUpdates++
		st.ParityPageWrites += uint64(fs.ParityPageWrites)
	}
	return sc
}

func (r *Registry) saveSidecar(st *RegistryStats, name string, sc *parity.Sidecar) error {
	blob := sc.Encode()
	meta := Meta{Name: parity.SidecarName(name), Size: uint64(len(blob)), Sum: ImageChecksum(blob)}
	if err := r.retryCounted(st, func() error { return r.store.Save(meta, blob) }); err != nil {
		return fmt.Errorf("pmem: saving parity sidecar for %q: %w", name, err)
	}
	return nil
}

func (r *Registry) refreshParityPages() {
	var n uint64
	for _, s := range r.saved {
		if s.side != nil {
			n += uint64(s.side.Rangelets())
		}
	}
	r.Stats.ParityPages = n
}

// loadSidecar finds a parity sidecar that describes the image identified
// by meta, preferring the in-memory cache over a store round trip. A
// sidecar that fails its own checksum or describes a different image is
// reported by state and not returned.
func (r *Registry) loadSidecar(meta Meta) (*parity.Sidecar, SidecarState) {
	if sc := r.saved[meta.Name].sidecar(); sc.Describes(meta.Sum, int(meta.Size)) {
		return sc, SidecarOK
	}
	var blob []byte
	err := r.retryCounted(&r.Stats, func() error {
		_, b, e := r.store.Load(parity.SidecarName(meta.Name))
		if e != nil {
			return e
		}
		blob = b
		return nil
	})
	if err != nil {
		return nil, SidecarMissing
	}
	sc, err := parity.Decode(blob)
	if err != nil {
		return nil, SidecarCorrupt
	}
	if !sc.Describes(meta.Sum, int(meta.Size)) {
		return nil, SidecarStale
	}
	return sc, SidecarOK
}

// walk is the one pass over a pool's stored image, shared by Open (repair
// set when parity is armed) and ScrubMedia. It loads the image — a torn one
// whose metadata survived counts as corrupt, not missing: the lost tail is
// just more bad pages — verifies it, and finds its parity sidecar. An
// intact image becomes the pool's saved record, and with repair set a
// sidecar that is missing, stale or damaged is rebuilt from it. A corrupt
// image's bad pages are reconstructed from parity and, with repair set,
// healed in the store. The report says what the walk found and did. The
// bytes returned are the intact or healed image; without one the error
// says why: nothing loadable (ErrNoSuchPool), or damage beyond parity's
// reach or not to be repaired (ErrCorrupt).
func (r *Registry) walk(name string, repair bool) (Meta, []byte, *MediaReport, error) {
	var meta Meta
	var data []byte
	err := r.retryCounted(&r.Stats, func() error {
		m, d, e := r.store.Load(name)
		if e != nil && (!errors.Is(e, ErrCorrupt) || m.Size == 0) {
			return e
		}
		meta, data = m, d
		return nil
	})
	if errors.Is(err, ErrCorrupt) {
		return meta, nil, nil, err // store errors already name the pool
	}
	if err != nil {
		return meta, nil, nil, fmt.Errorf("%w: %q: %v", ErrNoSuchPool, name, err)
	}
	sc, state := r.loadSidecar(meta)
	rep := &MediaReport{Pool: name, Sidecar: state}
	fail := func(err error) (Meta, []byte, *MediaReport, error) {
		rep.Err = err.Error()
		return meta, nil, rep, err
	}
	sums, verr := r.verify(meta, data)
	if verr == nil {
		rep.ImageOK = true
		if sc == nil && repair && r.parity.Enabled {
			// Keep the image even if the new sidecar cannot be saved: it
			// is intact, only unprotected until the next checkpoint.
			sc = parity.Build(data, r.parity)
			if err := r.saveSidecar(&r.Stats, name, sc); err != nil {
				rep.Err, sc = err.Error(), nil
			} else {
				rep.SidecarBuilt = true
				r.Stats.ParityRebuilds++
			}
		}
	} else {
		fixed, fixedSums, rerr := r.repairImage(meta, data, sc, state, rep)
		if rerr != nil {
			return fail(rerr)
		}
		if !repair {
			return meta, nil, rep, verr
		}
		if err := r.retryCounted(&r.Stats, func() error { return r.store.Save(meta, fixed) }); err != nil {
			return fail(fmt.Errorf("pmem: healing %q after repair: %w", name, err))
		}
		if len(rep.ParityRebuilt) > 0 {
			if err := r.saveSidecar(&r.Stats, name, sc); err != nil {
				return fail(err)
			}
		}
		rep.Healed = true
		data, sums = fixed, fixedSums
	}
	r.record(name, image{data: data, sums: sums, sum: meta.Sum}, sc)
	if sc != nil {
		rep.ParityPages = sc.Rangelets()
		r.refreshParityPages()
	}
	return meta, data, rep, nil
}

// record makes img, an intact stored image of the named pool, and sc, its
// sidecar, the pool's saved record. An image with the recorded image's
// checksum is that image: only the sidecar changes. Any other replaces the
// record; if the pool is mapped, its memory was not restored from img, so
// the next checkpoint takes every page.
func (r *Registry) record(name string, img image, sc *parity.Sidecar) {
	if rec := r.saved[name]; rec != nil && rec.cur.sum == img.sum && len(rec.cur.data) == len(img.data) {
		rec.side = sc
		return
	}
	rec := &saved{cur: img, side: sc}
	if p := r.byName[name]; p != nil && p.attached {
		rec.retake = allPages(len(img.sums))
	}
	r.saved[name] = rec
}

// repairImage reconstructs a corrupt image in memory from sc, its parity
// sidecar (nil when none is usable; state says why), noting the pages in
// mr. data is the bytes as loaded, possibly torn short. The result is a
// full Meta.Size image whose checksum matches meta.Sum, with its page sums,
// or an error wrapping ErrCorrupt when the damage exceeds parity's reach.
func (r *Registry) repairImage(meta Meta, data []byte, sc *parity.Sidecar, state SidecarState, mr *MediaReport) ([]byte, []uint64, error) {
	if sc == nil {
		r.Stats.MediaUnrecoverable++
		return nil, nil, fmt.Errorf("%w: %q: %w (sidecar %s)", ErrCorrupt, meta.Name, ErrNoParity, state)
	}
	mr.ParityPages = sc.Rangelets()
	buf := make([]byte, meta.Size) // zero-extend torn images to full size
	copy(buf, data)
	rep := sc.Repair(buf)
	mr.BadPages, mr.Repaired, mr.ParityRebuilt, mr.Unrecoverable = rep.BadPages, rep.Repaired, rep.ParityRebuilt, rep.Unrecoverable
	r.Stats.MediaBadPages += uint64(len(rep.BadPages))
	if len(rep.Unrecoverable) > 0 {
		r.Stats.MediaUnrecoverable += uint64(len(rep.Unrecoverable))
		return nil, nil, fmt.Errorf("%w: %q: %d rangelet(s) unrecoverable, first: %s",
			ErrCorrupt, meta.Name, len(rep.Unrecoverable), rep.Unrecoverable[0])
	}
	sums, sum := r.pageSums(buf)
	if sum != meta.Sum {
		// Parity said clean but the whole-image checksum still disagrees:
		// damage below CRC32's radar. Refuse to hand back garbage.
		r.Stats.MediaUnrecoverable++
		return nil, nil, fmt.Errorf("%w: %q: image checksum %#x after repair, meta says %#x",
			ErrCorrupt, meta.Name, sum, meta.Sum)
	}
	r.Stats.PagesRepaired += uint64(len(rep.Repaired))
	if len(rep.ParityRebuilt) > 0 {
		r.Stats.ParityRebuilds++
	}
	return buf, sums, nil
}

// ScrubMedia verifies the stored image of one pool against its metadata
// and parity sidecar, end to end, and (with repair set) fixes what it
// finds: corrupt data pages are reconstructed from parity and healed in
// the store, damaged or stale sidecars are rebuilt from an intact image.
// Unrecoverable damage is reported in the result, not as an error; the
// error return is for pools that cannot be scrubbed at all (no store, no
// such image).
func (r *Registry) ScrubMedia(name string, repair bool) (*MediaReport, error) {
	if r.store == nil {
		return nil, fmt.Errorf("pmem: no backing store to scrub")
	}
	_, _, rep, err := r.walk(name, repair)
	if rep == nil {
		return nil, err
	}
	r.Stats.MediaScrubs++
	return rep, nil
}

// ScrubAllMedia runs ScrubMedia over every stored pool image (sidecars
// themselves are skipped; they are verified as part of their pool's
// pass). Pools that cannot be loaded at all are reported with Err set.
func (r *Registry) ScrubAllMedia(repair bool) ([]*MediaReport, error) {
	if r.store == nil {
		return nil, fmt.Errorf("pmem: no backing store to scrub")
	}
	names, err := r.store.List()
	if err != nil {
		return nil, err
	}
	var out []*MediaReport
	for _, name := range names {
		if parity.IsSidecar(name) {
			continue
		}
		rep, err := r.ScrubMedia(name, repair)
		if err != nil {
			rep = &MediaReport{Pool: name, Err: err.Error()}
		}
		out = append(out, rep)
	}
	return out, nil
}
