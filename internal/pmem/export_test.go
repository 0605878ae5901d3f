package pmem

// RecordedSums returns the page sums of the image the registry last saved
// or loaded for the named pool, for the external tests.
func RecordedSums(r *Registry, name string) []uint64 { return r.saved[name].cur.sums }

// PageSums checksums every page of data at the registry's page size.
func PageSums(r *Registry, data []byte) []uint64 {
	sums, _ := r.pageSums(data)
	return sums
}
