package cluster

import (
	"errors"
	"hash/crc32"

	"nvref/internal/pmem"
)

// mapImageName is the image name a node's cluster map is stored under.
const mapImageName = "clustermap"

// Save durably stores the map image through a pmem.Store — the same
// NVM-device model the pool and op-log images use, so the image carries
// the store's CRC64 checksum on top of the map's own CRC32.
func Save(store pmem.Store, m *Map) error {
	data := m.Encode()
	meta := pmem.Meta{
		ID:   crc32.ChecksumIEEE([]byte(mapImageName)),
		Name: mapImageName,
		Size: uint64(len(data)),
		Sum:  pmem.ImageChecksum(data),
	}
	return store.Save(meta, data)
}

// Load reads the durable map image back, if any. A missing image returns
// (nil, nil) — the node has never been given a map — while a damaged one
// is an error: refusing to serve beats silently rejoining at a stale
// epoch with a guessed assignment.
func Load(store pmem.Store) (*Map, error) {
	meta, data, err := store.Load(mapImageName)
	if errors.Is(err, pmem.ErrStoreMissing) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if pmem.ImageChecksum(data) != meta.Sum {
		return nil, errors.Join(ErrBadMap, pmem.ErrCorrupt)
	}
	return Decode(data)
}
